"""The reuse controller (the paper's Sections 2.2-2.5).

:class:`ReuseController` owns everything the paper adds around the issue
queue:

* the state machine (``R_iqstate``) and the ``R_loophead`` /
  ``R_looptail`` registers,
* the buffering strategy (single-iteration vs. the multi-iteration
  strategy the paper selects, Section 2.2.1),
* procedure-call handling via a call-depth counter (Section 2.2.2),
* the non-bufferable loop table (Section 2.2.3),
* the reuse pointer scan that re-dispatches buffered instructions in
  program order (Section 2.4),
* every revoke/recovery rule back to Normal (Section 2.5), and
* the front-end gate signal.

Both pipeline cores drive this one implementation.  A core calls in at
decode (``on_decode``), at dispatch (``on_dispatch`` /
``on_dispatch_iq_full``) and during misprediction recovery
(``on_mispredict``), passing plain values: the pc, the predicted
outcome, the instruction's static ``decode_flags`` and its dynamic
sequence number.  Issue-queue entries are
opaque *handles* -- an ``IQEntry`` on the object core, an int entry slot
on the array core -- stored in :attr:`ReuseController.buffered`.  The
controller touches an entry only through its core's issue queue
(:class:`EntryHost`): mark it buffered, count the resident ones,
release them on revoke, and read the free-entry count.

In Code Reuse state each core's dispatch stage reads ``buffered`` and
``reuse_pointer`` itself and checks the pointed entry's issue state bit;
the pointer's wrap rule is :meth:`ReuseController.reuse_wrap`, reached
through ``advance_reuse`` on the object core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Protocol

from repro.arch.config import MachineConfig
from repro.arch.stats import PipelineStats
from repro.core.loop_detector import (
    F_BACKWARD,
    F_CALL,
    F_RETURN,
    LoopDetector,
)
from repro.core.lrl import LogicalRegisterList
from repro.core.nblt import NonBufferableLoopTable
from repro.core.states import IQState, check_transition
from repro.isa.instruction import Instruction


#: Private fault-injection switch for the fuzzer's self-test (see
#: ``tests/test_fuzz_selftest.py`` and ``docs/fuzzing.md``).  The only
#: recognised value, ``"skip-lrl-update"``, makes the reuse pointer wrap
#: to slot 1 instead of slot 0: the first buffered entry's LRL partial
#: update never happens after the first reused iteration, so the entry
#: is silently dropped from every subsequent iteration -- an
#: architecturally visible controller bug the fuzzer must find and
#: shrink.  Never set outside tests.
_INJECTED_BUG: Optional[str] = None


@dataclass(frozen=True)
class ControllerEvent:
    """One externally observable controller decision.

    The event log gives probes an exact record of which loop each
    transition concerned -- the :attr:`ReuseController.transitions` list
    only carries reasons, and the head/tail registers are cleared by the
    time a cycle probe runs after a revoke.
    """

    #: ``buffer_start`` | ``promote`` | ``revoke``.
    kind: str
    #: ``R_loophead`` at the time of the event.
    head_pc: Optional[int]
    #: ``R_looptail`` at the time of the event (the NBLT key).
    tail_pc: Optional[int]
    #: Revoke reason (None for the other kinds).
    reason: Optional[str] = None
    #: True when the revoke registered the tail in the NBLT.
    nblt_insert: bool = False
    #: Iterations captured (promote events only).
    iterations: int = 0
    #: Cycle the decision was taken in (0 for events synthesized outside
    #: a pipeline, e.g. in unit tests that drive the controller directly).
    cycle: int = 0
    #: Instructions supplied from the buffer during this buffering
    #: session, stamped on ``revoke`` events (0 for the other kinds --
    #: the session is still supplying when they are logged).
    supplied: int = 0


class EntryHost(Protocol):
    """The per-entry bits a core's issue queue exposes to the controller.

    ``entry`` is the core's opaque handle for one issue-queue entry.
    """

    @property
    def free_entries(self) -> int:
        """Unoccupied issue-queue entries."""
        ...

    def mark_buffered(self, entry: Any) -> Instruction:
        """Set the classification bit, clear the issue state bit, record
        a control entry's predicted outcome; returns the static
        instruction (for the LRL write)."""
        ...

    def count_resident(self, entries: List[Any]) -> int:
        """How many of ``entries`` still occupy the queue."""
        ...

    def release_buffered(self, entries: List[Any]) -> int:
        """Revoke: issued resident entries leave the queue, unissued ones
        lose their classification bit; returns the number removed."""
        ...


class ReuseController:
    """State machine and bookkeeping for the reuse-capable issue queue."""

    def __init__(self, config: MachineConfig, iq: EntryHost,
                 stats: PipelineStats):
        self.config = config
        self.iq = iq
        self.stats = stats
        self.enabled = config.reuse_enabled
        #: False while a Normal-state :meth:`on_decode` can act only on a
        #: predicted-taken backward branch (``F_BACKWARD``), so a core may
        #: skip the call for every other instruction.  Always False for
        #: the loop controller; the trace controller sets it while an
        #: observation window is open.
        self.observing = False
        self.detector = LoopDetector(config.iq_size)
        self.nblt = NonBufferableLoopTable(config.nblt_size)
        self.lrl = LogicalRegisterList(config.iq_size)
        self.state = IQState.NORMAL
        #: Front-end gate signal (fetch, branch predictor, decoder).
        self.gated = False
        # R_loophead / R_looptail
        self.loop_head_pc: Optional[int] = None
        self.loop_tail_pc: Optional[int] = None
        # buffering bookkeeping; ``buffered`` holds entry handles
        self.buffered: List[Any] = []
        self.call_depth = 0
        self.iteration_counter = 0          # instructions in current iteration
        self.last_iteration_size = 0
        self.iterations_buffered = 0
        self.pending_promote = False
        #: Sequence number of the tail whose dispatch engages Code Reuse.
        self._promote_seq: Optional[int] = None
        # reuse pointer
        self.reuse_pointer = 0
        self._next_entry_id = 0
        #: Monotonic buffering-session id (guards stale candidates).
        self.session_id = 0
        #: Instructions supplied from the buffer this session (stamped on
        #: the session's revoke event for per-loop reuse accounting).
        self.session_supplied = 0
        # candidates marked at decode but not yet dispatched into the queue
        # (decode runs ahead of dispatch; the buffering-continuation check
        # must count them against the free entries)
        self._undispatched_candidates = 0
        #: (old, new, cycle-agnostic reason) transition log for tests.
        self.transitions: List = []
        #: Decision log for probes (see :class:`ControllerEvent`).
        self.events: List[ControllerEvent] = []
        #: Current pipeline cycle, written by the pipeline at the top of
        #: every step so events can stamp the cycle they happened in.
        self.now = 0

    # -- event log ----------------------------------------------------------

    def iter_events_since(self, cursor: int):
        """New events appended since ``cursor``, plus the new cursor.

        The event log is append-only; passive probes keep a private
        cursor instead of draining it (probed and probe-free runs must
        stay bit-identical).  Typical consumer::

            fresh, self._cursor = controller.iter_events_since(self._cursor)
            for event in fresh:
                ...

        Returns ``(events, new_cursor)``; ``events`` is empty when
        nothing was appended.
        """
        log = self.events
        if cursor >= len(log):
            return (), cursor
        return log[cursor:], len(log)

    def resident_buffered(self) -> int:
        """Buffered entries still occupying the issue queue."""
        return self.iq.count_resident(self.buffered)

    # -- state transitions ---------------------------------------------------

    def _transition(self, new_state: IQState, reason: str) -> None:
        check_transition(self.state, new_state)
        self.transitions.append((self.state, new_state, reason))
        self.state = new_state

    # -- decode-stage hook ------------------------------------------------------

    def on_decode(self, pc: int, flags: int, target: Optional[int],
                  pred_taken: Optional[bool], pred_target: Optional[int],
                  seq: int) -> Optional[int]:
        """Observe one decoded instruction (detection + buffering).

        ``flags`` are the instruction's static
        :func:`~repro.core.loop_detector.decode_flags`, ``target`` its
        static branch target and ``seq`` its dynamic sequence number.
        Returns the buffering session the core must stamp on the
        instance (None when it is not a buffering candidate).
        """
        if not self.enabled:
            return None
        if self.state is IQState.NORMAL:
            if flags & F_BACKWARD and pred_taken:
                self._try_start_buffering(pc, target)
        elif self.state is IQState.BUFFERING:
            return self._buffering_decode(pc, flags, target, pred_taken,
                                          pred_target, seq)
        # REUSE: decode is gated; nothing should arrive here.
        return None

    def _try_start_buffering(self, tail: int, head: int) -> None:
        if not self.detector.fits(tail, head):
            return
        stats = self.stats
        stats.loop_detections += 1
        stats.nblt_lookups += 1
        if self.nblt.lookup(tail):
            stats.nblt_hits += 1
            return
        self._start_buffering(head, tail)

    def _start_buffering(self, head: int, tail: int) -> None:
        self._transition(IQState.BUFFERING, "capturable loop detected")
        self.events.append(ControllerEvent(
            kind="buffer_start", head_pc=head, tail_pc=tail, cycle=self.now))
        self.stats.buffering_started += 1
        self.session_id += 1
        self._undispatched_candidates = 0
        self.loop_head_pc = head
        self.loop_tail_pc = tail
        self.buffered = []
        self.call_depth = 0
        self.iteration_counter = 0
        self.last_iteration_size = 0
        self.iterations_buffered = 0
        self.pending_promote = False
        self._promote_seq = None
        self.session_supplied = 0

    def _buffering_decode(self, pc: int, flags: int, target: Optional[int],
                          pred_taken: Optional[bool],
                          pred_target: Optional[int],
                          seq: int) -> Optional[int]:
        if self.pending_promote:
            # the gate signal is already up; nothing new should be decoded,
            # but an instruction already in flight through decode this cycle
            # is simply left alone (it will be flushed by the pipeline)
            return None
        if pc == self.loop_tail_pc and self.call_depth == 0:
            session = self._claim()
            if not pred_taken:
                # the loop ends here: execution exits during buffering
                self._revoke("exit at tail", register_nblt=True)
                self.stats.revokes_exit += 1
            else:
                self._end_iteration(seq)
            return session
        in_loop = self.loop_head_pc <= pc <= self.loop_tail_pc
        if self.call_depth == 0 and not in_loop:
            self._revoke("exit", register_nblt=True)
            self.stats.revokes_exit += 1
            return None
        if flags & F_BACKWARD and pred_taken:
            # an inner loop inside the loop being buffered: the current
            # loop is non-bufferable; re-run detection on the inner loop
            self._revoke("inner loop", register_nblt=True)
            self.stats.revokes_inner_loop += 1
            self._try_start_buffering(pc, target)
            return None
        if flags & F_CALL:
            self.call_depth += 1
        elif flags & F_RETURN and self.call_depth > 0:
            self.call_depth -= 1
        return self._claim()

    def _claim(self) -> int:
        """Count one decoded instance as a buffering candidate."""
        self._undispatched_candidates += 1
        self.iteration_counter += 1
        return self.session_id

    def _end_iteration(self, seq: int) -> None:
        """The tail of a buffered iteration (sequence ``seq``) decoded."""
        self.last_iteration_size = self.iteration_counter
        self.iteration_counter = 0
        self.iterations_buffered += 1
        if self.config.buffering_strategy == "single":
            self._promote(seq)
            return
        # multi-iteration strategy: keep buffering while the free entries
        # can hold another iteration of the just-observed size; entries
        # already claimed by decoded-but-undispatched candidates count as
        # occupied
        effective_free = self.iq.free_entries - self._undispatched_candidates
        if effective_free < self.last_iteration_size:
            self._promote(seq)

    def _promote(self, tail_seq: int) -> None:
        """Raise the gate; Code Reuse begins once the tail is dispatched."""
        self.pending_promote = True
        self._promote_seq = tail_seq
        self.gated = True

    # -- dispatch-stage hooks ----------------------------------------------------

    def on_dispatch(self, session: Optional[int], seq: int,
                    entry: Any) -> None:
        """Observe one normally dispatched instance: its decode-time
        session stamp, its sequence number and its queue entry handle."""
        if not self.enabled or self.state is not IQState.BUFFERING:
            return
        if session == self.session_id:
            self._undispatched_candidates -= 1
            inst = self.iq.mark_buffered(entry)
            self.lrl.record(self._next_entry_id, inst.dest, inst.srcs)
            self._next_entry_id += 1
            self.stats.lrl_writes += 1
            self.buffered.append(entry)
            self.stats.buffered_instructions += 1
        if self.pending_promote and seq == self._promote_seq:
            self._enter_reuse()

    def _enter_reuse(self) -> None:
        self._transition(IQState.REUSE, "buffering finished")
        self.events.append(ControllerEvent(
            kind="promote",
            head_pc=self.loop_head_pc,
            tail_pc=self.loop_tail_pc,
            iterations=self.iterations_buffered,
            cycle=self.now))
        self.stats.promotions += 1
        self.stats.buffered_iterations += self.iterations_buffered
        self.pending_promote = False
        self._promote_seq = None
        self.reuse_pointer = 0

    def on_dispatch_iq_full(self, session: Optional[int]) -> None:
        """Dispatch stalled on a full issue queue; ``session`` is the
        stalled instance's decode-time stamp.

        During buffering, a full queue only proves the loop does not fit
        when every occupied entry is a *buffered* entry -- buffered entries
        never leave, so no space can ever free up (the paper's "issue queue
        is used up before the loop-ending instruction is met", typically a
        procedure call blowing the iteration size).  A queue still holding
        conventional entries merely stalls dispatch until they issue.
        """
        if not self.enabled or self.state is not IQState.BUFFERING:
            return
        if session != self.session_id:
            return
        occupancy = self.config.iq_size - self.iq.free_entries
        if self.resident_buffered() >= occupancy:
            self._revoke("issue queue full", register_nblt=True)
            self.stats.revokes_iq_full += 1

    # -- reuse pointer (Code Reuse dispatch source) -------------------------------

    def advance_reuse(self) -> None:
        """Advance the reuse pointer (wraps at the last buffered entry)."""
        self.session_supplied += 1
        self.reuse_pointer += 1
        if self.reuse_pointer >= len(self.buffered):
            self.reuse_pointer = self.reuse_wrap()

    def reuse_wrap(self) -> int:
        """Where the reuse pointer goes after the last buffered entry."""
        if _INJECTED_BUG == "skip-lrl-update" and len(self.buffered) > 1:
            return 1
        return 0

    # -- recovery -------------------------------------------------------------------

    def on_mispredict(self) -> None:
        """Misprediction recovery hook (called after the pipeline squash)."""
        if not self.enabled:
            return
        if self.state is IQState.BUFFERING:
            self._revoke("mispredict during buffering", register_nblt=False)
            self.stats.revokes_mispredict += 1
        elif self.state is IQState.REUSE:
            self.stats.reuse_mispredicts += 1
            self._revoke("reuse exit", register_nblt=False)

    def _revoke(self, reason: str, register_nblt: bool) -> None:
        """Return to Normal state (the paper's Section 2.5 rules).

        Buffered-and-issued entries leave the queue immediately; buffered
        but not-yet-issued entries merely lose their classification bit (the
        instruction itself must still execute; it is removed at issue like
        any conventional entry).
        """
        inserted = register_nblt and self.loop_tail_pc is not None
        self.events.append(ControllerEvent(
            kind="revoke",
            head_pc=self.loop_head_pc,
            tail_pc=self.loop_tail_pc,
            reason=reason,
            nblt_insert=inserted,
            iterations=self.iterations_buffered,
            cycle=self.now,
            supplied=self.session_supplied))
        if inserted:
            self.nblt.insert(self.loop_tail_pc)
            self.stats.nblt_inserts += 1
        self.stats.iq_removes += self.iq.release_buffered(self.buffered)
        if self.state is IQState.BUFFERING:
            self.stats.buffering_revokes += 1
        self.buffered = []
        self.lrl.clear()
        self.stats.revokes += 1
        self.pending_promote = False
        self._promote_seq = None
        self.gated = False
        self.loop_head_pc = None
        self.loop_tail_pc = None
        self._transition(IQState.NORMAL, reason)
