"""The replayable regression corpus.

A corpus entry is a pair of files in one directory:

``<name>.s``
    The assembly source of a minimized reproducer.

``<name>.json``
    A manifest: schema version, the campaign seed that produced it, the
    machine configuration it must replay under (``config``: the sparse
    :meth:`MachineConfig.to_dict`), what kind of entry it is
    (``regression`` -- a pinned historical near-miss that must keep
    matching; ``divergence`` -- a live finding awaiting a fix;
    ``coverage`` -- a mutant kept for the signatures it exercises), a
    human description, optional minimum controller-event counts the
    replay must reach, and (when the entry came from the mutation engine)
    the structured spec so future campaigns can keep mutating it.

``tests/test_corpus_replay.py`` replays every entry under ``tests/corpus``
through the three-way oracle as parametrized tier-1 tests, so each
reproducer stays a permanent, deterministic regression test.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.arch.config import MachineConfig

#: Manifest schema version (bump on incompatible layout changes).
SCHEMA_VERSION = 1

#: Allowed entry kinds.
ENTRY_KINDS = ("regression", "divergence", "coverage")


@dataclass
class CorpusEntry:
    """One replayable corpus entry (manifest + source)."""

    name: str
    kind: str
    description: str
    source: str
    seed: int = 0
    #: :meth:`MachineConfig.to_dict` of the machine to replay under.
    config: Dict[str, Any] = field(default_factory=lambda: {"iq_size": 32})
    #: ``match``: the three-way oracle must agree.  ``divergence``: the
    #: entry reproduces a live bug (never placed under ``tests/corpus``).
    expect: str = "match"
    #: Controller-event floors the reuse run must reach on replay
    #: (e.g. ``{"promote": 1}`` pins that the loop actually promotes).
    min_events: Dict[str, int] = field(default_factory=dict)
    #: Structured spec for re-seeding campaigns (optional).
    spec: Optional[Dict[str, Any]] = None

    def machine_config(self) -> MachineConfig:
        """The configuration this entry replays under."""
        return MachineConfig.from_dict(self.config)

    def to_manifest(self) -> Dict[str, Any]:
        manifest: Dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "kind": self.kind,
            "description": self.description,
            "seed": self.seed,
            "config": dict(self.config),
            "expect": self.expect,
            "source_file": f"{self.name}.s",
        }
        if self.min_events:
            manifest["min_events"] = dict(sorted(self.min_events.items()))
        if self.spec is not None:
            manifest["spec"] = self.spec
        return manifest


class CorpusError(Exception):
    """A corpus entry is malformed or unreadable."""


def write_entry(directory: str, entry: CorpusEntry) -> List[str]:
    """Write one entry; returns the two file paths created."""
    if entry.kind not in ENTRY_KINDS:
        raise CorpusError(f"unknown corpus entry kind {entry.kind!r}")
    os.makedirs(directory, exist_ok=True)
    source_path = os.path.join(directory, f"{entry.name}.s")
    manifest_path = os.path.join(directory, f"{entry.name}.json")
    with open(source_path, "w", encoding="utf-8") as handle:
        handle.write(entry.source)
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(entry.to_manifest(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return [source_path, manifest_path]


def load_entry(manifest_path: str) -> CorpusEntry:
    """Load one entry from its manifest path."""
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:
        raise CorpusError(f"cannot read {manifest_path}: {exc}")
    for key in ("schema", "name", "kind", "config", "source_file"):
        if key not in manifest:
            raise CorpusError(f"{manifest_path}: missing {key!r}")
    if manifest["schema"] != SCHEMA_VERSION:
        raise CorpusError(
            f"{manifest_path}: schema {manifest['schema']} != "
            f"{SCHEMA_VERSION}")
    if manifest["kind"] not in ENTRY_KINDS:
        raise CorpusError(
            f"{manifest_path}: unknown kind {manifest['kind']!r}")
    directory = os.path.dirname(manifest_path)
    source_path = os.path.join(directory, manifest["source_file"])
    try:
        with open(source_path, encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        raise CorpusError(f"cannot read {source_path}: {exc}")
    return CorpusEntry(
        name=manifest["name"],
        kind=manifest["kind"],
        description=manifest.get("description", ""),
        source=source,
        seed=manifest.get("seed", 0),
        config=manifest["config"],
        expect=manifest.get("expect", "match"),
        min_events=dict(manifest.get("min_events", {})),
        spec=manifest.get("spec"),
    )


def load_corpus(directory: str) -> List[CorpusEntry]:
    """Load every entry in a corpus directory, sorted by name."""
    if not os.path.isdir(directory):
        return []
    entries = []
    for filename in sorted(os.listdir(directory)):
        if filename.endswith(".json"):
            entries.append(load_entry(os.path.join(directory, filename)))
    return entries
