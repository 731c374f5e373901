"""Machine configuration.

:class:`MachineConfig` defaults reproduce the paper's Table 1 baseline:

====================  =====================================================
Issue queue           64 entries (unified int+fp, collapsing)
Load/store queue      32 entries
ROB                   64 entries
Fetch queue           4 entries
Fetch/decode width    4 instructions per cycle
Issue/commit width    4 instructions per cycle
Function units        4 IALU, 1 IMULT, 4 FPALU, 1 FPMULT
Branch predictor      bimodal, 2048 entries, 8-entry RAS
BTB                   512 sets, 4-way associative
L1 I-cache            32 KB, 2-way, 1-cycle hit
L1 D-cache            32 KB, 4-way, 1-cycle hit
L2 unified            256 KB, 4-way, 8-cycle hit
TLBs                  ITLB 16 sets x 4-way, DTLB 32 sets x 4-way,
                      4 KB pages, 30-cycle miss penalty
Memory                80 cycles first chunk, 8 cycles per remaining chunk
====================  =====================================================

The paper sweeps the issue-queue size over {32, 64, 128, 256} with
``ROB = IQ`` and ``LSQ = IQ / 2``; :meth:`MachineConfig.with_iq_size`
applies exactly that rule.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
import functools
from typing import Any, Dict


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and hit latency of one cache level."""

    name: str
    size_bytes: int
    assoc: int
    line_bytes: int
    hit_latency: int

    @property
    def num_sets(self) -> int:
        """Number of sets implied by size / (associativity x line size)."""
        sets = self.size_bytes // (self.assoc * self.line_bytes)
        if sets * self.assoc * self.line_bytes != self.size_bytes:
            raise ValueError(f"{self.name}: size not divisible into sets")
        return sets


@dataclass(frozen=True)
class TlbConfig:
    """Geometry of one TLB."""

    name: str
    num_sets: int
    assoc: int
    page_bytes: int = 4096
    miss_penalty: int = 30


@dataclass(frozen=True)
class MachineConfig:
    """Full machine configuration (paper Table 1 defaults)."""

    # -- pipeline widths ----------------------------------------------------
    fetch_width: int = 4
    decode_width: int = 4
    issue_width: int = 4
    commit_width: int = 4

    # -- window sizes --------------------------------------------------------
    fetch_queue_size: int = 4
    iq_size: int = 64
    rob_size: int = 64
    lsq_size: int = 32

    # -- functional units ----------------------------------------------------
    num_ialu: int = 4
    num_imult: int = 1
    num_fpalu: int = 4
    num_fpmult: int = 1
    dcache_ports: int = 2

    # -- branch prediction ------------------------------------------------------
    #: Direction predictor: "bimod" (the paper's baseline) or "gshare".
    bpred_kind: str = "bimod"
    bimod_size: int = 2048
    #: Global-history bits (gshare only).
    bpred_history_bits: int = 8
    ras_size: int = 8
    btb_sets: int = 512
    btb_assoc: int = 4

    # -- memory hierarchy ---------------------------------------------------------
    il1: CacheConfig = field(default_factory=lambda: CacheConfig(
        "il1", size_bytes=32 * 1024, assoc=2, line_bytes=32, hit_latency=1))
    dl1: CacheConfig = field(default_factory=lambda: CacheConfig(
        "dl1", size_bytes=32 * 1024, assoc=4, line_bytes=32, hit_latency=1))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        "l2", size_bytes=256 * 1024, assoc=4, line_bytes=64, hit_latency=8))
    itlb: TlbConfig = field(default_factory=lambda: TlbConfig(
        "itlb", num_sets=16, assoc=4))
    dtlb: TlbConfig = field(default_factory=lambda: TlbConfig(
        "dtlb", num_sets=32, assoc=4))
    mem_first_chunk: int = 80
    mem_next_chunk: int = 8

    # -- the paper's mechanism -------------------------------------------------
    #: Master switch for the reuse-capable issue queue.
    reuse_enabled: bool = False
    #: Controller variant: "loop" is the paper's backward-branch tight-loop
    #: detector; "trace" generalizes detection to arbitrary hot traces via
    #: a trace-head table keyed on start PC + branch-outcome signature
    #: (see ``docs/trace_reuse.md``).  Ignored when ``reuse_enabled`` is
    #: False.
    reuse_mode: str = "loop"
    #: Non-bufferable loop table entries (0 disables the NBLT).
    nblt_size: int = 8
    #: Trace-head table entries for the trace-reuse controller (FIFO;
    #: 0 disables trace detection entirely).  Unused in "loop" mode.
    tht_size: int = 16
    #: "multi" buffers whole iterations while free entries remain (the
    #: strategy the paper chooses); "single" buffers exactly one iteration.
    buffering_strategy: str = "multi"

    # -- related-work baseline ---------------------------------------------------
    #: Fetch-stage loop cache capacity in instructions (0 disables).  This
    #: is the Lee/Moyer/Arends-style comparison point from the paper's
    #: related work: it saves I-cache energy only, leaving the branch
    #: predictor, decoder and issue queue running.
    loop_cache_size: int = 0
    #: When True the loop cache stores *decoded* instructions (the
    #: Tang/Gupta/Nicolau decode filter cache): supplied instructions skip
    #: decode energy as well.  Requires ``loop_cache_size > 0``.
    loop_cache_decoded: bool = False

    # -- safety ---------------------------------------------------------------
    max_cycles: int = 100_000_000

    def __post_init__(self):
        if self.buffering_strategy not in ("single", "multi"):
            raise ValueError(
                f"buffering_strategy must be 'single' or 'multi', "
                f"got {self.buffering_strategy!r}")
        for name in ("fetch_width", "decode_width", "issue_width",
                     "commit_width", "fetch_queue_size", "iq_size",
                     "rob_size", "lsq_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.reuse_mode not in ("loop", "trace"):
            raise ValueError(
                f"reuse_mode must be 'loop' or 'trace', "
                f"got {self.reuse_mode!r}")
        if self.nblt_size < 0:
            raise ValueError("nblt_size must be >= 0")
        if self.tht_size < 0:
            raise ValueError("tht_size must be >= 0")
        if self.loop_cache_size < 0:
            raise ValueError("loop_cache_size must be >= 0")
        if self.loop_cache_decoded and not self.loop_cache_size:
            raise ValueError(
                "loop_cache_decoded requires loop_cache_size > 0")
        if self.bpred_kind not in ("bimod", "gshare"):
            raise ValueError(
                f"bpred_kind must be 'bimod' or 'gshare', "
                f"got {self.bpred_kind!r}")

    def with_iq_size(self, iq_size: int) -> "MachineConfig":
        """Resize the window using the paper's sweep rule.

        ``ROB = IQ`` and ``LSQ = IQ / 2`` (Section 3 of the paper).
        """
        return dataclasses.replace(
            self, iq_size=iq_size, rob_size=iq_size, lsq_size=iq_size // 2)

    def replace(self, **kwargs) -> "MachineConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)

    def to_dict(self) -> Dict[str, Any]:
        """Sparse JSON form: ``iq_size`` plus each field that differs
        from ``MachineConfig().with_iq_size(iq_size)`` (the paper's sweep
        rule); a differing cache or TLB is a dict of its differing
        fields.  Memoized per config; :meth:`from_dict` inverts it."""
        return {name: dict(value) if isinstance(value, dict) else value
                for name, value in _sparse_dict(self).items()}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MachineConfig":
        """Rebuild a config from :meth:`to_dict` or any subset of fields,
        over the sweep rule's baseline.  An unknown key raises
        ``ValueError``, a value of the wrong type (a bool for an int, too)
        ``TypeError``; ``__post_init__`` checks the values."""
        _check_type("config", payload, {})
        iq_size = payload.get("iq_size", BASELINE.iq_size)
        _check_type("iq_size", iq_size, BASELINE.iq_size)
        return _apply(_sweep_point(iq_size), payload, "")

    def table1(self) -> str:
        """Render the configuration in the layout of the paper's Table 1."""
        rows = [
            ("Issue Queue", f"{self.iq_size} entries"),
            ("Load/Store Queue", f"{self.lsq_size} entries"),
            ("ROB", f"{self.rob_size} entries"),
            ("Fetch Queue", f"{self.fetch_queue_size} entries"),
            ("Fetch/Decode Width",
             f"{self.fetch_width} inst. per cycle"),
            ("Issue/Commit Width",
             f"{self.issue_width} inst. per cycle"),
            ("Function Units",
             f"{self.num_ialu} IALU, {self.num_imult} IMULT, "
             f"{self.num_fpalu} FPALU, {self.num_fpmult} FPMULT"),
            ("Branch Predictor",
             f"bimod, {self.bimod_size} entries, RAS {self.ras_size} "
             f"entries"),
            ("BTB", f"{self.btb_sets} set {self.btb_assoc} way assoc."),
            ("L1 ICache",
             f"{self.il1.size_bytes // 1024}KB, {self.il1.assoc} way, "
             f"{self.il1.hit_latency} cycle"),
            ("L1 DCache",
             f"{self.dl1.size_bytes // 1024}KB, {self.dl1.assoc} way, "
             f"{self.dl1.hit_latency} cycle"),
            ("L2 UCache",
             f"{self.l2.size_bytes // 1024}KB, {self.l2.assoc} way, "
             f"{self.l2.hit_latency} cycles"),
            ("TLB",
             f"ITLB: {self.itlb.num_sets} set {self.itlb.assoc} way, "
             f"DTLB: {self.dtlb.num_sets} set {self.dtlb.assoc} way, "
             f"{self.itlb.page_bytes // 1024}KB page size, "
             f"{self.itlb.miss_penalty} cycle penalty"),
            ("Memory",
             f"{self.mem_first_chunk} cycles for first chunk, "
             f"{self.mem_next_chunk} cycles the rest"),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def _diff(value, base) -> Dict[str, Any]:
    """Fields of dataclass ``value`` that differ from ``base``."""
    out: Dict[str, Any] = {}
    for name in value.__dataclass_fields__:
        mine, theirs = getattr(value, name), getattr(base, name)
        if mine != theirs:
            out[name] = _diff(mine, theirs) \
                if dataclasses.is_dataclass(mine) else mine
    return out


@functools.lru_cache(maxsize=64)
def _sweep_point(iq_size: int) -> MachineConfig:
    return BASELINE.with_iq_size(iq_size)


@functools.lru_cache(maxsize=1024)
def _sparse_dict(config: MachineConfig) -> Dict[str, Any]:
    return {"iq_size": config.iq_size,
            **_diff(config, _sweep_point(config.iq_size))}


def _check_type(name: str, value, default) -> None:
    if type(value) is not type(default):  # exact: a bool is not an int
        raise TypeError(f"{name} must be {type(default).__name__}, "
                        f"got {value!r}")


def _apply(base, payload: Dict[str, Any], prefix: str):
    """``base`` with the fields ``payload`` names replaced, type-checked."""
    changes = {}
    for name, value in payload.items():
        if name not in base.__dataclass_fields__:
            raise ValueError(f"unknown field {prefix + name!r}")
        default = getattr(base, name)
        if dataclasses.is_dataclass(default):
            _check_type(prefix + name, value, {})
            value = _apply(default, value, f"{prefix}{name}.")
        else:
            _check_type(prefix + name, value, default)
        if value != default:
            changes[name] = value
    return dataclasses.replace(base, **changes) if changes else base


#: The paper's baseline configuration (64-entry issue queue, reuse off).
BASELINE = MachineConfig()

#: Issue-queue sizes swept in the paper's evaluation.
SWEEP_IQ_SIZES = (32, 64, 128, 256)
