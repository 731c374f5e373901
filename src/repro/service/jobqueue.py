"""Persistent, crash-recoverable job queue for the simulation service.

State lives in an append-only JSONL *journal*: every mutation -- a job
spec being admitted, a sweep being registered, a state transition -- is
one JSON line appended and flushed, and startup replays the whole file to
reconstruct the queue.  Three properties fall out of this design:

* **crash recovery** -- a killed server replays the journal on restart;
  jobs that were ``running`` at the moment of death go back to
  ``pending`` (their worker is gone), everything ``done`` stays done, so
  a restarted sweep resumes instead of starting over.  A torn final line
  (the process died mid-append) is detected and ignored.
* **idempotent resubmission** -- jobs are keyed by the runner's
  content-hash :func:`~repro.runner.jobs.job_key`, so resubmitting a
  sweep (same client retrying, or a second client asking for the same
  frontier) attaches to the existing jobs instead of duplicating work.
* **no payloads in the journal** -- results live in the content-addressed
  :class:`~repro.runner.cache.ResultCache` under the same keys; the
  journal records only specs and state, so it stays tiny and the cache
  stays the single source of result truth.

A job spec is a grid point (benchmark, issue-queue size, reuse flag,
optimize flag) plus, flat beside it, the rest of the sparse
:meth:`~repro.arch.config.MachineConfig.to_dict`: it rebuilds its
:class:`~repro.runner.jobs.SimJob` bit-exactly over the paper's
``with_iq_size`` sweep rule, which makes a journaled job re-runnable.

The queue is synchronous and single-threaded by design: every mutation
happens on the service's event loop, and the worker pool hands results
back to the loop before touching it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json
import os
import pathlib
import time
from typing import Any, Dict, List, Optional

from repro.arch.config import MachineConfig
from repro.runner.jobs import SimJob
from repro.telemetry.log import get_logger

_log = get_logger("service.journal")

#: Lifecycle states of one queued job.
JOB_STATES = ("pending", "running", "done", "failed")

#: How a done job's result came to exist.
SOURCES = ("cache", "sim")


@dataclass
class JobSpec:
    """The journal-serializable description of one simulation."""

    benchmark: str
    iq_size: int
    reuse: bool
    optimize: bool = False
    #: The other sparse :meth:`MachineConfig.to_dict` fields.
    config: Dict[str, Any] = field(default_factory=dict)

    def to_sim_job(self) -> SimJob:
        """Reconstruct the runner job (the paper's sweep rule)."""
        fields = {**self.config, "iq_size": self.iq_size,
                  "reuse_enabled": self.reuse}
        return SimJob(benchmark=self.benchmark, optimize=self.optimize,
                      config=MachineConfig.from_dict(fields))

    def to_dict(self) -> Dict[str, Any]:
        return {"benchmark": self.benchmark, "iq_size": self.iq_size,
                "reuse": self.reuse, "optimize": self.optimize,
                **self.config}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobSpec":
        """Inverse of :meth:`to_dict`; the config must be valid."""
        config = dict(payload)
        spec = cls(*(config.pop(name)
                     for name in ("benchmark", "iq_size", "reuse")),
                   optimize=config.pop("optimize", False), config=config)
        spec.to_sim_job()
        return spec


@dataclass
class QueuedJob:
    """One job's live state: spec + lifecycle bookkeeping."""

    key: str
    spec: JobSpec
    state: str = "pending"
    attempts: int = 0
    error: str = ""
    #: "cache" when admission or a worker found the result cached,
    #: "sim" when a worker ran the timing simulation.
    source: str = ""
    wall_time: float = 0.0
    #: Trace context of the submission that admitted the job (journaled,
    #: so a restarted server keeps the request -> job association).
    trace_id: str = ""
    #: Monotonic admission timestamp; the queue-wait histogram measures
    #: from here to the worker's pickup.  Not journaled (a restart
    #: resets the clock domain anyway).
    enqueued_at: float = field(default_factory=time.monotonic)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "key": self.key,
            "state": self.state,
            "attempts": self.attempts,
            **self.spec.to_dict(),
        }
        if self.error:
            payload["error"] = self.error
        if self.source:
            payload["source"] = self.source
        if self.wall_time:
            payload["wall_time"] = round(self.wall_time, 6)
        if self.trace_id:
            payload["trace_id"] = self.trace_id
        return payload


def shard_of(key: str, shards: int) -> int:
    """Deterministic worker-lane assignment for one content-hash key.

    The leading 8 hex digits of the key modulo the lane count: every
    lane owns a stable slice of the key space, so one key is only ever
    executed by one lane -- dedup under concurrency needs no locks.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    return int(key[:8], 16) % shards


class JournalError(Exception):
    """The journal file cannot be opened or written."""


@dataclass
class _Sweep:
    sweep_id: str
    keys: List[str]
    created_at: float
    request: Dict[str, Any] = field(default_factory=dict)


class JobQueue:
    """The service's job table, persisted through the journal.

    All reads are in-memory; every mutation appends one journal line
    first (write-ahead), then updates the in-memory table, so a crash
    between the two can only lose the in-memory copy the replay rebuilds.
    """

    def __init__(self, journal_path: os.PathLike):
        self.journal_path = pathlib.Path(journal_path)
        self.jobs: Dict[str, QueuedJob] = {}
        self.sweeps: Dict[str, _Sweep] = {}
        #: Jobs whose ``running`` state was rolled back to ``pending``
        #: during replay -- the restart-resume count for observability.
        self.recovered = 0
        #: Torn/undecodable journal lines skipped during replay.
        self.skipped_lines = 0
        self._replay()
        self.journal_path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._terminate_torn_tail()
            self._journal = open(self.journal_path, "a",
                                 encoding="utf-8")
        except OSError as exc:
            raise JournalError(
                f"cannot open journal {self.journal_path}: {exc}")

    # -- journal ----------------------------------------------------------

    def _replay(self) -> None:
        try:
            with open(self.journal_path, encoding="utf-8") as handle:
                lines = handle.readlines()
        except FileNotFoundError:
            return
        except OSError as exc:
            raise JournalError(
                f"cannot read journal {self.journal_path}: {exc}")
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                op = record["op"]
            except (ValueError, TypeError, KeyError):
                # a torn append from a crash mid-write: skip, the state
                # it would have recorded is rebuilt by the worker pool
                self.skipped_lines += 1
                continue
            try:
                self._apply(op, record)
            except (KeyError, TypeError, ValueError):
                self.skipped_lines += 1
        for job in self.jobs.values():
            if job.state == "running":
                # its worker died with the process: back to pending
                job.state = "pending"
                job.source = ""
                self.recovered += 1
        if self.jobs or self.skipped_lines:
            _log.info("journal-replayed",
                      journal=str(self.journal_path),
                      jobs=len(self.jobs), sweeps=len(self.sweeps),
                      recovered=self.recovered,
                      skipped_lines=self.skipped_lines)

    def _apply(self, op: str, record: Dict[str, Any]) -> None:
        if op == "job":
            spec = JobSpec.from_dict(record["spec"])
            key = str(record["key"])
            job = self.jobs.setdefault(key, QueuedJob(key=key, spec=spec))
            # a later "job" op for a known key re-stamps trace context
            # (an untraced job resubmitted with a trace id)
            if record.get("trace_id"):
                job.trace_id = str(record["trace_id"])
        elif op == "state":
            job = self.jobs[str(record["key"])]
            state = str(record["state"])
            if state not in JOB_STATES:
                raise ValueError(f"unknown job state {state!r}")
            job.state = state
            job.attempts = int(record.get("attempts", job.attempts))
            job.error = str(record.get("error", ""))
            job.source = str(record.get("source", ""))
            job.wall_time = float(record.get("wall_time", 0.0))
        elif op == "sweep":
            sweep_id = str(record["sweep_id"])
            self.sweeps.setdefault(sweep_id, _Sweep(
                sweep_id=sweep_id,
                keys=[str(k) for k in record["keys"]],
                created_at=float(record.get("created_at", 0.0)),
                request=dict(record.get("request", {})),
            ))

    def _terminate_torn_tail(self) -> None:
        """Close off a torn final line so new appends start clean.

        A crash mid-append can leave the journal without a trailing
        newline; appending straight after it would corrupt the *next*
        record too.  Replay already ignored the fragment -- here we just
        seal it with a newline.
        """
        try:
            with open(self.journal_path, "rb") as handle:
                handle.seek(0, os.SEEK_END)
                if handle.tell() == 0:
                    return
                handle.seek(-1, os.SEEK_END)
                torn = handle.read(1) != b"\n"
        except FileNotFoundError:
            return
        if torn:
            with open(self.journal_path, "ab") as handle:
                handle.write(b"\n")

    def _append(self, record: Dict[str, Any]) -> None:
        try:
            self._journal.write(
                json.dumps(record, sort_keys=True) + "\n")
            self._journal.flush()
        except (OSError, ValueError) as exc:
            raise JournalError(f"journal append failed: {exc}")

    def close(self) -> None:
        try:
            self._journal.close()
        except OSError:
            pass

    # -- admission --------------------------------------------------------

    def admit(self, key: str, spec: JobSpec,
              trace_id: str = "") -> QueuedJob:
        """Admit one job; an already-known key attaches, not duplicates.

        A previously ``failed`` key is given a fresh life (state back to
        pending, attempts reset): resubmission is the operator's retry
        button.  ``trace_id`` is journaled with the job; attaching to an
        existing *untraced* job re-journals the spec so the trace
        context survives a restart.
        """
        job = self.jobs.get(key)
        if job is None:
            record: Dict[str, Any] = {"op": "job", "key": key,
                                      "spec": spec.to_dict()}
            if trace_id:
                record["trace_id"] = trace_id
            self._append(record)
            job = QueuedJob(key=key, spec=spec, trace_id=trace_id)
            self.jobs[key] = job
            _log.info("job-admitted", key=key, trace_id=trace_id,
                      benchmark=spec.benchmark, iq_size=spec.iq_size,
                      reuse=spec.reuse)
            return job
        if trace_id and not job.trace_id:
            self._append({"op": "job", "key": key,
                          "spec": job.spec.to_dict(),
                          "trace_id": trace_id})
            job.trace_id = trace_id
        if job.state == "failed":
            self.transition(key, "pending", attempts=0)
        return job

    def register_sweep(self, sweep_id: str, keys: List[str],
                       request: Optional[Dict[str, Any]] = None,
                       trace_id: str = "") -> None:
        """Record one sweep -> job-keys mapping (idempotent)."""
        if sweep_id in self.sweeps:
            return
        sweep = _Sweep(sweep_id=sweep_id, keys=list(keys),
                       created_at=time.time(),
                       request=dict(request or {}))
        record: Dict[str, Any] = {"op": "sweep", "sweep_id": sweep_id,
                                  "keys": sweep.keys,
                                  "created_at": sweep.created_at,
                                  "request": sweep.request}
        if trace_id:
            record["trace_id"] = trace_id
        self._append(record)
        self.sweeps[sweep_id] = sweep
        _log.info("sweep-registered", sweep_id=sweep_id,
                  trace_id=trace_id, jobs=len(sweep.keys))

    # -- state transitions ------------------------------------------------

    def transition(self, key: str, state: str, attempts: Optional[int] = None,
                   error: str = "", source: str = "",
                   wall_time: float = 0.0) -> QueuedJob:
        """Move one job to ``state``, journaling the transition first."""
        if state not in JOB_STATES:
            raise ValueError(f"unknown job state {state!r}")
        job = self.jobs[key]
        attempts = job.attempts if attempts is None else attempts
        self._append({"op": "state", "key": key, "state": state,
                      "attempts": attempts, "error": error,
                      "source": source,
                      "wall_time": round(wall_time, 6)})
        job.state = state
        job.attempts = attempts
        job.error = error
        job.source = source
        job.wall_time = wall_time
        return job

    # -- queries ----------------------------------------------------------

    def next_pending(self, shard: int, shards: int) -> Optional[QueuedJob]:
        """The oldest pending job owned by one worker lane, or None."""
        for job in self.jobs.values():  # dict preserves admission order
            if job.state == "pending" and \
                    shard_of(job.key, shards) == shard:
                return job
        return None

    def depth(self) -> int:
        """Jobs waiting or running -- the backpressure signal."""
        return sum(1 for job in self.jobs.values()
                   if job.state in ("pending", "running"))

    def counts(self) -> Dict[str, int]:
        counts = {state: 0 for state in JOB_STATES}
        for job in self.jobs.values():
            counts[job.state] += 1
        return counts

    def sweep_jobs(self, sweep_id: str) -> List[QueuedJob]:
        """The jobs of one sweep (KeyError on an unknown sweep)."""
        sweep = self.sweeps[sweep_id]
        return [self.jobs[key] for key in sweep.keys]

    def sweep_status(self, sweep_id: str) -> Dict[str, Any]:
        """The poll payload: per-job states plus the hit/sim manifest."""
        sweep = self.sweeps[sweep_id]
        jobs = self.sweep_jobs(sweep_id)
        states = {state: 0 for state in JOB_STATES}
        cache_hits = 0
        simulated = 0
        for job in jobs:
            states[job.state] += 1
            if job.state == "done":
                if job.source == "cache":
                    cache_hits += 1
                elif job.source == "sim":
                    simulated += 1
        return {
            "sweep_id": sweep_id,
            "created_at": sweep.created_at,
            "request": sweep.request,
            "total": len(jobs),
            "states": states,
            "complete": states["done"] == len(jobs),
            "failed": states["failed"],
            "manifest": {
                "cache_hits": cache_hits,
                "simulated": simulated,
                "hit_rate": cache_hits / len(jobs) if jobs else 0.0,
            },
            "jobs": [job.to_dict() for job in jobs],
        }
