"""Replay every ``tests/corpus`` entry through the three-way oracle.

Each corpus entry (a minimized reproducer plus its manifest, see
:mod:`repro.fuzz.corpus` and ``docs/fuzzing.md``) becomes one
parametrized tier-1 test: the entry must assemble, the interpreter /
baseline / reuse runs must agree, and the reuse run must reach the
controller-event floors the manifest pins.  A fuzzing campaign that
finds a divergence ships its shrunk reproducer here (flipped to
``expect: match`` once fixed), so every historical bug stays a
permanent, deterministic regression test.
"""

from __future__ import annotations

import os

import pytest

from repro.fuzz.corpus import load_corpus
from repro.fuzz.oracle import run_differential
from repro.isa.assembler import assemble

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

_ENTRIES = load_corpus(CORPUS_DIR)


def test_corpus_is_populated():
    """The seeded corpus must never silently vanish."""
    assert len(_ENTRIES) >= 7


@pytest.mark.parametrize("reuse_mode", ["loop", "trace"])
@pytest.mark.parametrize("engine", ["object", "array"])
@pytest.mark.parametrize(
    "entry", _ENTRIES, ids=[entry.name for entry in _ENTRIES])
def test_corpus_entry_replays(entry, engine, reuse_mode):
    """Every entry replays clean on the three-way oracle (``object``)
    and on the four-way oracle including the array core (``array``),
    under both reuse controllers (``loop`` and ``trace``).

    The manifests' controller-event floors describe the *loop*
    controller's behaviour (the scenario each entry was minimized
    against), so they are only asserted on the loop-mode axis; the
    trace-mode axis pins architectural-state equality.
    """
    assert entry.expect == "match", (
        f"{entry.name}: unfixed divergence entries do not belong under "
        f"tests/corpus (see docs/fuzzing.md triage workflow)")
    program = assemble(entry.source, name=entry.name)
    config = entry.machine_config().replace(reuse_mode=reuse_mode)
    outcome = run_differential(program, config, collect_coverage=False,
                               engine=engine)
    assert outcome.divergence is None, (
        f"{entry.name}: {outcome.divergence.describe()}")
    if reuse_mode != "loop":
        return
    for kind, floor in sorted(entry.min_events.items()):
        got = outcome.event_counts.get(kind, 0)
        assert got >= floor, (
            f"{entry.name}: expected >= {floor} {kind!r} controller "
            f"events, observed {got} -- the scenario this entry pins "
            f"no longer occurs")
