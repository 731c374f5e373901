"""The differential oracle.

The reuse mechanism's correctness argument is a single claim: for any
program, the in-order interpreter, the baseline out-of-order pipeline and
the reuse-enabled pipeline leave identical architectural state.
:func:`first_divergence` checks one pipeline against one interpreter run
and names the *first* diverging architectural word (committed count, a
register by name, or an 8-byte memory word by address) instead of dumping
full state; :func:`assert_matches_oracle` wraps it as the assertion helper
the test suite has always used (``tests/helpers.py`` re-exports it).

:func:`run_differential` is the fuzzer's differential oracle: one
interpreter run, one baseline pipeline run, one reuse pipeline run (with
a :class:`~repro.fuzz.coverage.CoverageProbe` attached), folded into a
:class:`DifferentialOutcome` -- the first divergence across the modes (a
state mismatch, a simulator crash, or a cycle-budget timeout all count),
the reuse run's coverage signatures, and its controller-event counts.
With ``engine="array"`` (the campaign default) the three-way oracle
becomes **four-way**: a probe-free
:class:`~repro.arch.fastcore.FastPipeline` reuse run is added as mode
``reuse-array``, so every mutant also cross-checks the array core's
flat-state fast path against the interpreter, and its activity record
against the object reuse run's (:func:`record_divergence`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.arch.config import MachineConfig
from repro.arch.fastcore import FastPipeline
from repro.arch.pipeline import Pipeline, SimulationTimeout
from repro.fuzz.coverage import CoverageProbe
from repro.isa.interpreter import Interpreter, run_program
from repro.isa.program import Program
from repro.isa.registers import reg_name
from repro.power.activity import ActivityRecord

#: Fixed part of the pipeline cycle budget :func:`run_differential` allows.
CYCLE_LIMIT_BASE = 20_000

#: Cycles allowed per interpreter-executed instruction on top of the base.
CYCLE_LIMIT_PER_INSTRUCTION = 30


@dataclass(frozen=True)
class Divergence:
    """One architectural disagreement between a pipeline and the oracle."""

    #: Which pipeline diverged (``baseline``, ``reuse`` or
    #: ``reuse-array``).
    mode: str
    #: ``committed`` | ``register`` | ``memory`` | ``record`` |
    #: ``timeout`` | ``crash``.
    kind: str
    #: The diverging word: a register name, a memory word address, or
    #: an activity-record counter name.
    location: str
    #: What the pipeline produced (repr / message text).
    got: str
    #: What the oracle (for ``record``: the object core) expected.
    want: str

    def describe(self) -> str:
        """One-line human summary naming the first diverging word."""
        if self.kind == "committed":
            return (f"[{self.mode}] committed instruction count: "
                    f"{self.got} != oracle {self.want}")
        if self.kind == "register":
            return (f"[{self.mode}] register {self.location}: "
                    f"{self.got} != oracle {self.want}")
        if self.kind == "memory":
            return (f"[{self.mode}] memory word {self.location}: "
                    f"{self.got} != oracle {self.want}")
        if self.kind == "record":
            return (f"[{self.mode}] activity record {self.location}: "
                    f"{self.got} != object core {self.want}")
        return f"[{self.mode}] {self.kind}: {self.got}"

    def to_dict(self) -> Dict[str, str]:
        return {"mode": self.mode, "kind": self.kind,
                "location": self.location, "got": self.got,
                "want": self.want}

    @classmethod
    def from_dict(cls, payload: Dict[str, str]) -> "Divergence":
        return cls(**payload)


def first_divergence(pipeline: Any, oracle: Interpreter,
                     mode: str = "pipeline") -> Optional[Divergence]:
    """First architectural disagreement, or None when the states match.

    Checks, in order: committed instruction count, the 64 architectural
    registers, then every memory page the oracle touched (compared as
    8-byte words, lowest diverging address first).
    """
    committed = pipeline.stats.committed
    if committed != oracle.instructions_executed:
        return Divergence(mode, "committed", "",
                          str(committed),
                          str(oracle.instructions_executed))
    pipe_regs = pipeline.architectural_registers()
    for index, (got, want) in enumerate(zip(pipe_regs, oracle.regs)):
        if got != want:
            return Divergence(mode, "register", reg_name(index),
                              repr(got), repr(want))
    for page_addr in sorted(oracle.memory._pages):
        page = oracle.memory._pages[page_addr]
        base = page_addr << 12
        got_bytes = pipeline.mem_image.read_bytes(base, len(page))
        want_bytes = bytes(page)
        if got_bytes == want_bytes:
            continue
        for offset in range(0, len(page), 8):
            got_word = got_bytes[offset:offset + 8]
            want_word = want_bytes[offset:offset + 8]
            if got_word != want_word:
                return Divergence(mode, "memory", hex(base + offset),
                                  got_word.hex(), want_word.hex())
    return None


def record_divergence(pipeline: Any, want: Mapping[str, Any],
                      mode: str = "reuse-array") -> Optional[Divergence]:
    """First field where a finished pipeline's activity record differs
    from ``want`` (another core's record payload), or None.

    The two cores are bit-exact, so any counter that differs names a
    behavioural difference even when the architectural state agrees.
    """
    got = ActivityRecord.capture(pipeline).to_payload()
    if got == want:
        return None
    for name, value in want["counters"].items():
        if got["counters"].get(name) != value:
            return Divergence(mode, "record", name,
                              str(got["counters"].get(name)), str(value))
    return Divergence(mode, "record", "registers", repr(got["registers"]),
                      repr(want["registers"]))


def assert_matches_oracle(pipeline: Any, oracle: Interpreter) -> None:
    """Assert a finished pipeline's architectural state equals the oracle's.

    On mismatch the assertion message names the first diverging register
    or memory word rather than dumping the full state.
    """
    divergence = first_divergence(pipeline, oracle)
    if divergence is not None:
        raise AssertionError(divergence.describe())


@dataclass
class DifferentialOutcome:
    """Result of one differential oracle run (three- or four-way)."""

    #: First divergence across the pipeline modes (None = all agree).
    divergence: Optional[Divergence]
    #: Coverage signatures observed on the reuse run.
    signatures: Tuple[str, ...]
    #: Controller-event counts of the reuse run, by kind.
    event_counts: Dict[str, int]
    #: Instructions the interpreter executed.
    oracle_instructions: int

    @property
    def ok(self) -> bool:
        return self.divergence is None


def cycle_limit_for(oracle_instructions: int) -> int:
    """Pipeline cycle budget for a program of the given dynamic length.

    Generous enough for any legitimate schedule; a pipeline that blows it
    is hung (e.g. a reuse loop that lost its exit) and counts as a
    divergence of kind ``timeout``.
    """
    return CYCLE_LIMIT_BASE \
        + CYCLE_LIMIT_PER_INSTRUCTION * oracle_instructions


def run_differential(program: Program, config: MachineConfig,
                     max_instructions: int = 1_000_000,
                     collect_coverage: bool = True,
                     engine: str = "object",
                     reuse_mode: str = "loop") -> DifferentialOutcome:
    """Run the differential oracle on one program.

    All pipeline modes run from the given ``config`` (its
    ``reuse_enabled`` field is overridden per mode).  The object-core
    reuse run carries a :class:`~repro.fuzz.coverage.CoverageProbe`
    unless ``collect_coverage`` is False; coverage signatures and
    controller-event counts always come from that run.  Any crash inside
    a pipeline is reported as a ``crash`` divergence for that mode,
    never raised.

    ``engine="object"`` is the historical three-way oracle.
    ``engine="array"`` appends a fourth leg -- a probe-free
    :class:`~repro.arch.fastcore.FastPipeline` reuse run, mode label
    ``reuse-array`` -- checked against the same interpreter state and,
    when both reuse runs finished clean, against the object reuse run's
    activity record (a divergence of kind ``record``).
    (Ordering matters for the self-test: an injected controller bug is
    reported against mode ``reuse`` first, the array leg only ever adds
    findings of its own.)

    ``reuse_mode`` selects the controller variant the reuse legs run
    (``"loop"`` or ``"trace"``; see ``docs/trace_reuse.md``) -- the
    baseline leg is unaffected.
    """
    oracle = run_program(program, max_instructions=max_instructions)
    limit = cycle_limit_for(oracle.instructions_executed)
    divergence: Optional[Divergence] = None
    signatures: Tuple[str, ...] = ()
    event_counts: Dict[str, int] = {}
    reuse_record: Optional[Dict[str, Any]] = None
    legs = [("baseline", Pipeline, False), ("reuse", Pipeline, True)]
    if engine == "array":
        legs.append(("reuse-array", FastPipeline, True))
    elif engine != "object":
        raise ValueError(f"unknown engine {engine!r}; "
                         f"choose 'object' or 'array'")
    for mode, core, reuse in legs:
        pipeline = core(program, config.replace(
            reuse_enabled=reuse,
            reuse_mode=reuse_mode if reuse else config.reuse_mode))
        probe = None
        if mode == "reuse" and collect_coverage:
            probe = CoverageProbe()
            pipeline.attach_probe(probe)
        found: Optional[Divergence] = None
        try:
            pipeline.run(max_cycles=limit)
        except SimulationTimeout as exc:
            found = Divergence(mode, "timeout", "", str(exc),
                               f"halt within {limit} cycles")
        except Exception as exc:  # a simulator crash is a finding too
            found = Divergence(mode, "crash", "",
                               f"{type(exc).__name__}: {exc}", "no crash")
        else:
            found = first_divergence(pipeline, oracle, mode)
            if found is None and mode == "reuse":
                reuse_record = ActivityRecord.capture(pipeline).to_payload()
            elif found is None and reuse_record is not None:
                found = record_divergence(pipeline, reuse_record, mode)
        if mode == "reuse":
            if probe is not None:
                signatures = tuple(probe.signatures)
            for event in pipeline.controller.events:
                event_counts[event.kind] = \
                    event_counts.get(event.kind, 0) + 1
        if divergence is None:
            divergence = found
    return DifferentialOutcome(
        divergence=divergence,
        signatures=signatures,
        event_counts=event_counts,
        oracle_instructions=oracle.instructions_executed,
    )
