"""The coverage-guided differential fuzzing campaign.

One :class:`FuzzCampaign` run is a deterministic function of its
:class:`CampaignConfig`:

1. the mutation engine's archetype seeds start the in-memory corpus,
2. each round picks a corpus parent, mutates it, renders it, and runs the
   differential oracle (:func:`repro.fuzz.oracle.run_differential`;
   four-way with the default ``engine="array"``) over it
   -- fanned out across processes through the runner's generic
   :func:`~repro.runner.executor.run_tasks` when ``jobs > 1``,
3. a mutant producing any unseen coverage signature enters the corpus;
   a diverging mutant is shrunk to a minimal reproducer
   (:func:`repro.fuzz.shrink.shrink`) and, when a corpus directory is
   configured, written out as a replayable entry,
4. the campaign stops at its program budget or its wall-clock budget,
   whichever binds first, and emits a JSON-ready report.

Determinism: all randomness flows from one seeded :class:`random.Random`
held by the parent; workers are pure functions of their payload; results
are folded in submission order (see :func:`run_tasks`); the report
carries no wall-clock data.  Two runs with the same seed and the same
binding *program* budget produce byte-identical reports at any ``jobs``
level.  (Wall-clock times live in the runner manifest, not the report.)
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.arch.config import MachineConfig
from repro.core import controller as controller_module
from repro.fuzz.corpus import CorpusEntry, write_entry
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.mutate import MutationEngine, ProgramSpec, render
from repro.fuzz.oracle import Divergence, run_differential
from repro.fuzz.shrink import shrink
from repro.isa.assembler import AssemblerError, assemble
from repro.runner.executor import run_tasks
from repro.runner.progress import ProgressReporter

#: Campaign report schema version (2: ``config.machine`` is the sparse
#: :meth:`MachineConfig.to_dict` in place of flat machine fields).
REPORT_SCHEMA = 2


@dataclass(frozen=True)
class CampaignConfig:
    """Everything one campaign run depends on."""

    seed: int = 0
    #: Mutants to execute (the deterministic budget).
    programs: int = 200
    #: Wall-clock cap in seconds (safety valve; 0 disables).
    time_budget: float = 60.0
    #: Worker processes (1 = in-process serial).
    jobs: int = 1
    #: The machine the oracle legs run (each leg sets ``reuse_enabled``;
    #: ``reuse_mode`` picks the reuse legs' controller).
    machine: MachineConfig = field(
        default_factory=lambda: MachineConfig().with_iq_size(32))
    #: Shrink findings to minimal reproducers.
    minimize: bool = True
    #: Directory findings / interesting mutants are written to (None =
    #: in-memory only).
    corpus_dir: Optional[str] = None
    #: Predicate-evaluation budget per shrink.
    shrink_budget: int = 250
    #: Fault-injection switch forwarded to the controller (self-test).
    inject_bug: Optional[str] = None
    #: Oracle engine: ``array`` (default) runs the four-way oracle with
    #: the reuse-array leg, ``object`` the historical three-way one.
    engine: str = "array"

    def machine_config(self) -> MachineConfig:
        return self.machine


@dataclass
class Finding:
    """One divergence the campaign found (shrunk when minimize is on)."""

    index: int
    divergence: Divergence
    source: str
    spec: Dict[str, Any]
    original_cost: int
    shrunk_cost: int
    shrink_evaluations: int = 0
    shrink_complete: bool = True
    corpus_files: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "divergence": self.divergence.to_dict(),
            "summary": self.divergence.describe(),
            "source": self.source,
            "spec": self.spec,
            "original_cost": self.original_cost,
            "shrunk_cost": self.shrunk_cost,
            "shrink_evaluations": self.shrink_evaluations,
            "shrink_complete": self.shrink_complete,
            "corpus_files": sorted(self.corpus_files),
        }


def _evaluate(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker body: assemble + differential oracle for one mutant.

    Module-level and a pure function of its payload, so it can run
    in-process or in a pool worker interchangeably.  The fault-injection
    flag is scoped to exactly this evaluation.
    """
    config = MachineConfig.from_dict(payload["config"])
    controller_module._INJECTED_BUG = payload.get("inject_bug")
    try:
        try:
            program = assemble(payload["source"], name=payload["name"])
        except AssemblerError as exc:
            return {"invalid": str(exc)}
        outcome = run_differential(program, config,
                                   engine=payload.get("engine", "object"))
    finally:
        controller_module._INJECTED_BUG = None
    return {
        "signatures": list(outcome.signatures),
        "divergence": outcome.divergence.to_dict()
        if outcome.divergence else None,
        "event_counts": dict(outcome.event_counts),
        "oracle_instructions": outcome.oracle_instructions,
    }


class FuzzCampaign:
    """Drives one coverage-guided differential fuzzing run."""

    def __init__(self, config: CampaignConfig,
                 progress: Optional[ProgressReporter] = None):
        self.config = config
        self.progress = progress or ProgressReporter(verbose=False)
        self.coverage = CoverageMap()
        self.findings: List[Finding] = []
        self.corpus_specs: List[ProgramSpec] = []
        self.history: List[int] = []
        self.executed = 0
        self.invalid = 0
        self.admitted = 0

    # -- driving -----------------------------------------------------------

    def run(self) -> Dict[str, Any]:
        """Run the campaign; returns the JSON-ready report."""
        config = self.config
        rng = random.Random(config.seed)
        engine = MutationEngine(rng)
        seeds = engine.seed_specs()
        deadline = (time.monotonic() + config.time_budget
                    if config.time_budget else None)
        stopped_by = "programs"
        queue: List[ProgramSpec] = list(seeds)
        batch_size = max(config.jobs, 1)
        while self.executed < config.programs:
            if deadline is not None and time.monotonic() >= deadline:
                stopped_by = "time"
                break
            remaining = config.programs - self.executed
            batch: List[ProgramSpec] = []
            while queue and len(batch) < min(batch_size, remaining):
                batch.append(queue.pop(0))
            while len(batch) < min(batch_size, remaining):
                parent = rng.choice(self.corpus_specs) \
                    if self.corpus_specs else rng.choice(seeds)
                batch.append(engine.mutate(parent))
            payloads = [self._payload(spec, self.executed + offset)
                        for offset, spec in enumerate(batch)]
            results = run_tasks(_evaluate, payloads,
                                jobs=config.jobs,
                                progress=self.progress,
                                label="mutant")
            for spec, result in zip(batch, results):
                self._fold(spec, result)
        report = self._report(stopped_by)
        self.progress.render_summary()
        return report

    def _payload(self, spec: ProgramSpec, index: int) -> Dict[str, Any]:
        config = self.config
        return {
            "name": f"mutant-{index:05d}",
            "source": render(spec),
            "config": config.machine.to_dict(),
            "inject_bug": config.inject_bug,
            "engine": config.engine,
        }

    def _fold(self, spec: ProgramSpec, result: Any) -> None:
        """Fold one evaluation result into campaign state, in order."""
        self.executed += 1
        if isinstance(result, Exception):
            # the harness itself failed on this mutant; surface it as a
            # crash finding rather than silently dropping the program
            divergence = Divergence("harness", "crash", "",
                                    f"{type(result).__name__}: {result}",
                                    "no crash")
            self._record_finding(spec, divergence)
            self.history.append(self.coverage.cardinality)
            return
        if "invalid" in result:
            self.invalid += 1
            self.history.append(self.coverage.cardinality)
            return
        new = self.coverage.add_all(result["signatures"])
        if result["divergence"] is not None:
            self._record_finding(
                spec, Divergence.from_dict(result["divergence"]))
        elif new:
            self.corpus_specs.append(spec)
            self.admitted += 1
        self.history.append(self.coverage.cardinality)

    # -- findings ----------------------------------------------------------

    def _reproduces(self, spec: ProgramSpec) -> bool:
        """Shrink predicate: does this spec still diverge?"""
        result = _evaluate(self._payload(spec, 0))
        return result.get("divergence") is not None

    def _record_finding(self, spec: ProgramSpec,
                        divergence: Divergence) -> None:
        original_cost = spec.estimated_cost()
        evaluations = 0
        complete = True
        if self.config.minimize and divergence.mode != "harness":
            outcome = shrink(spec, self._reproduces,
                             max_evaluations=self.config.shrink_budget)
            spec = outcome.spec
            evaluations = outcome.evaluations
            complete = outcome.complete
            # re-derive the divergence from the shrunk reproducer so the
            # report describes what the corpus entry actually shows
            final = _evaluate(self._payload(spec, 0))
            if final.get("divergence") is not None:
                divergence = Divergence.from_dict(final["divergence"])
        finding = Finding(
            index=len(self.findings),
            divergence=divergence,
            source=render(spec),
            spec=spec.to_dict(),
            original_cost=original_cost,
            shrunk_cost=spec.estimated_cost(),
            shrink_evaluations=evaluations,
            shrink_complete=complete,
        )
        if self.config.corpus_dir:
            entry = CorpusEntry(
                name=f"finding-{finding.index:04d}",
                kind="divergence",
                description=divergence.describe(),
                source=finding.source,
                seed=self.config.seed,
                config=self.config.machine.to_dict(),
                expect="divergence",
                spec=finding.spec,
            )
            finding.corpus_files = write_entry(self.config.corpus_dir,
                                               entry)
        self.findings.append(finding)

    # -- reporting ---------------------------------------------------------

    def _report(self, stopped_by: str) -> Dict[str, Any]:
        config = self.config
        return {
            "report_schema": REPORT_SCHEMA,
            "seed": config.seed,
            "config": {
                "programs": config.programs,
                "jobs": config.jobs,
                "machine": config.machine.to_dict(),
                "minimize": config.minimize,
                "inject_bug": config.inject_bug,
                "engine": config.engine,
            },
            "stopped_by": stopped_by,
            "programs_run": self.executed,
            "invalid_programs": self.invalid,
            "corpus_admitted": self.admitted,
            "coverage": {
                "cardinality": self.coverage.cardinality,
                "history": list(self.history),
                "signatures": self.coverage.signatures(),
            },
            "findings": [finding.to_dict()
                         for finding in self.findings],
            "unshrunk_findings": sum(
                1 for finding in self.findings
                if not finding.shrink_complete),
        }
