"""``MachineConfig.to_dict`` / ``from_dict``: the one serialised run spec.

The sparse dict is what journals, corpus manifests, fuzz payloads and
exported results carry, so it must rebuild every field exactly -- nested
caches and TLBs, and windows that break the paper's ROB = IQ rule --
and ``from_dict`` must refuse anything that is not a valid config.
"""

from __future__ import annotations

import dataclasses
import json

from hypothesis import assume, given
from hypothesis import strategies as st
import pytest

from repro.arch.config import (
    SWEEP_IQ_SIZES,
    CacheConfig,
    MachineConfig,
    TlbConfig,
)
from repro.runner.jobs import config_digest

_CHOICES = {
    "bpred_kind": ("bimod", "gshare"),
    "reuse_mode": ("loop", "trace"),
    "buffering_strategy": ("single", "multi"),
}

_SIZES = st.integers(min_value=1, max_value=512)

_NESTED = {
    CacheConfig: st.builds(
        CacheConfig, name=st.sampled_from(("il1", "dl1", "l2")),
        size_bytes=st.sampled_from((8192, 32768, 262144)),
        assoc=st.sampled_from((1, 2, 4, 8)),
        line_bytes=st.sampled_from((16, 32, 64)),
        hit_latency=_SIZES),
    TlbConfig: st.builds(
        TlbConfig, name=st.sampled_from(("itlb", "dtlb")),
        num_sets=_SIZES, assoc=_SIZES, page_bytes=_SIZES,
        miss_penalty=_SIZES),
}


def _field_strategy(name: str, default):
    if name in _CHOICES:
        return st.sampled_from(_CHOICES[name])
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return _SIZES
    return _NESTED[type(default)]


_OVERRIDES = st.fixed_dictionaries({}, optional={
    spec.name: _field_strategy(spec.name, getattr(MachineConfig(), spec.name))
    for spec in dataclasses.fields(MachineConfig)
    if spec.name != "iq_size"})


@given(iq_size=st.integers(min_value=2, max_value=512),
       overrides=_OVERRIDES)
def test_from_dict_inverts_to_dict_over_every_field(iq_size, overrides):
    # a decoded loop cache needs a loop cache (default size 0)
    assume("loop_cache_size" in overrides
           or not overrides.get("loop_cache_decoded"))
    config = MachineConfig().with_iq_size(iq_size).replace(**overrides)
    sparse = config.to_dict()
    assert sparse["iq_size"] == iq_size
    assert MachineConfig.from_dict(sparse) == config
    # the JSON form every journal, manifest and export writes
    assert MachineConfig.from_dict(json.loads(json.dumps(sparse))) == config
    assert config_digest(MachineConfig.from_dict(sparse)) == \
        config_digest(config)


@pytest.mark.parametrize("iq_size", SWEEP_IQ_SIZES)
def test_the_sweep_rule_is_the_sparse_baseline(iq_size):
    assert MachineConfig().with_iq_size(iq_size).to_dict() == \
        {"iq_size": iq_size}
    assert MachineConfig.from_dict({"iq_size": iq_size}) == \
        MachineConfig().with_iq_size(iq_size)
    assert MachineConfig.from_dict({}) == MachineConfig()


def test_differing_nested_fields_are_sparse_dicts():
    config = MachineConfig().replace(
        rob_size=100,
        dl1=dataclasses.replace(MachineConfig().dl1, assoc=8))
    assert config.to_dict() == {"iq_size": 64, "rob_size": 100,
                                "dl1": {"assoc": 8}}


def test_to_dict_returns_a_fresh_copy():
    config = MachineConfig().replace(
        il1=dataclasses.replace(MachineConfig().il1, assoc=4))
    first = config.to_dict()
    first["il1"]["assoc"] = 1
    first["bpred_kind"] = "gshare"
    assert config.to_dict() == {"iq_size": 64, "il1": {"assoc": 4}}


@pytest.mark.parametrize("payload, error", [
    ({"iq_size": 32, "nblt": 8}, ValueError),          # unknown key
    ({"dl1": {"ways": 2}}, ValueError),               # unknown nested key
    ({"iq_size": True}, TypeError),                   # bool for int
    ({"nblt_size": False}, TypeError),
    ({"nblt_size": "8"}, TypeError),                  # str for int
    ({"iq_size": 32.0}, TypeError),
    ({"reuse_enabled": 1}, TypeError),                # int for bool
    ({"bpred_kind": 0}, TypeError),
    ({"dl1": 4}, TypeError),                          # scalar for cache
    ({"dl1": {"assoc": "4"}}, TypeError),
    ([("iq_size", 32)], TypeError),                   # not an object
    ({"iq_size": 0}, ValueError),                     # __post_init__
    ({"nblt_size": -1}, ValueError),
    ({"buffering_strategy": "triple"}, ValueError),
    ({"reuse_mode": "supertrace"}, ValueError),
    ({"bpred_kind": "neural"}, ValueError),
    ({"loop_cache_decoded": True}, ValueError),
])
def test_from_dict_rejects_invalid_payloads(payload, error):
    with pytest.raises(error):
        MachineConfig.from_dict(payload)
