"""Declarative simulation job specifications.

A :class:`SimJob` names everything one simulation depends on -- the
benchmark, the frozen :class:`~repro.arch.config.MachineConfig`, the
compiler-optimization flag and the power parameters -- without holding any
live state, so it can be hashed, pickled to a worker process, and used as
a key into the persistent result cache.

The cache key (:func:`job_key`) is a content hash of the *timing inputs
only*: the full machine configuration and the bytes of the program itself
(disassembly listing plus data image), so editing a kernel or a config
knob automatically misses the cache instead of serving a stale result.
The power parameters are deliberately **not** part of the key -- power is
post-hoc arithmetic over the cached activity record, so jobs differing
only in params share one timing simulation (see ``docs/activity.md``).

Both digests are memoized: a warm figure re-run keys every job again, and
re-disassembling each program dominated that path.  A program's digest is
remembered per :class:`~repro.isa.program.Program` object (programs are
not edited after assembly), a configuration's per frozen value.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import weakref
from dataclasses import dataclass, field
from typing import Any, Dict

from repro.arch.config import MachineConfig
from repro.isa.program import Program
from repro.power.params import DEFAULT_PARAMS, PowerParams


@dataclass(frozen=True)
class SimJob:
    """One simulation to run: program + configuration + power params."""

    #: Table 2 benchmark name (resolved through the workload suite).
    benchmark: str
    #: Full machine configuration, including ``reuse_enabled``.
    config: MachineConfig
    #: Use the loop-distributed (Section 4) variant of the kernel.
    optimize: bool = False
    #: Power-model parameters (evaluation-time only; never part of the
    #: cache key, so any params variant reuses the same timing run).
    params: PowerParams = field(default=DEFAULT_PARAMS)
    #: Pipeline-core engine the timing run executes on (``array``, the
    #: default, or ``object``; see :data:`repro.sim.simulator.ENGINES`).
    #: Part of the cache key: the engines are proven bit-exact, but a
    #: cached record must always say which core actually produced it, so
    #: an engine bug can never hide behind the other engine's cache
    #: entries (see ``docs/runner.md``).
    engine: str = "array"

    def describe(self) -> str:
        """Short human-readable label for progress lines."""
        mode = "reuse" if self.config.reuse_enabled else "base"
        opt = " opt" if self.optimize else ""
        extras = []
        if self.engine != "object":
            extras.append(self.engine)
        if self.config.reuse_enabled and self.config.reuse_mode != "loop":
            extras.append(self.config.reuse_mode)
        if self.config.nblt_size != 8:
            extras.append(f"nblt={self.config.nblt_size}")
        if self.config.buffering_strategy != "multi":
            extras.append(self.config.buffering_strategy)
        suffix = (" " + " ".join(extras)) if extras else ""
        return (f"{self.benchmark} iq={self.config.iq_size} "
                f"{mode}{opt}{suffix}")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=1024)
def config_digest(config: MachineConfig) -> str:
    """Stable hash of every field of a machine configuration."""
    return _digest(json.dumps(dataclasses.asdict(config), sort_keys=True))


#: ``program_digest`` results, keyed on the program object itself (not
#: its name: distinct programs may share one); an entry dies with its
#: program.
_PROGRAM_DIGESTS: "weakref.WeakKeyDictionary[Program, str]" = \
    weakref.WeakKeyDictionary()


def program_digest(program: Program) -> str:
    """Content hash of an assembled program.

    Digests the disassembly listing (text segment plus labels) and the
    data image.  The binary instruction encoding is deliberately not used:
    some calibrated kernels carry immediates outside the encodable range.
    """
    digest = _PROGRAM_DIGESTS.get(program)
    if digest is None:
        sha = hashlib.sha256()
        sha.update(program.listing().encode("utf-8"))
        for address, data in sorted(program.data_segments):
            sha.update(address.to_bytes(8, "little"))
            sha.update(data)
        digest = sha.hexdigest()
        _PROGRAM_DIGESTS[program] = digest
    return digest


def job_key(job: SimJob, program: Program) -> str:
    """Deterministic cache key for one job's *timing run*.

    Folds the benchmark name, the optimize flag, the program bytes and
    the machine configuration into one digest, so any change to any
    timing input re-simulates instead of hitting a stale entry.  The
    power parameters are excluded on purpose: the cached artifact is an
    activity record, valid under every parameterization, so jobs
    differing only in params collapse onto one key.  The engine *is*
    included -- array and object runs never share cache entries, even
    though they are bit-exact by construction (schema 4).
    """
    sha = hashlib.sha256()
    for part in (job.benchmark, "opt" if job.optimize else "orig",
                 job.engine,
                 program_digest(program), config_digest(job.config)):
        sha.update(part.encode("utf-8"))
        sha.update(b"\0")
    return sha.hexdigest()[:40]


def job_to_dict(job: SimJob) -> Dict[str, Any]:
    """Reporting export of a job spec (for cache entries / manifests)."""
    return {
        "benchmark": job.benchmark,
        "optimize": job.optimize,
        "engine": job.engine,
        "iq_size": job.config.iq_size,
        "reuse_enabled": job.config.reuse_enabled,
        "reuse_mode": job.config.reuse_mode,
        "buffering_strategy": job.config.buffering_strategy,
        "nblt_size": job.config.nblt_size,
        "config_digest": config_digest(job.config),
    }
