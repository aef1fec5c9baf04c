"""The config dataclasses: their field names are pinned, and every
validation check rejects its bad value.

A knob that only a test sets is a module constant, not a field; pinning
the names here makes any new field a visible diff.
"""

import dataclasses
import math
import re

import pytest

from repro import ClusterConfig
from repro.core import HeatConfig, IgnemConfig
from repro.mapreduce import EngineConfig
from repro.obs import ObservabilityConfig
from repro.storage import GB
from repro.workloads.scale import ScaleConfig
from repro.workloads.serve import ServeConfig

#: Every field of the seven config dataclasses, in declaration order.
FIELDS = {
    IgnemConfig: (
        "buffer_capacity",
        "policy",
        "migration_concurrency",
        "do_not_harm",
        "reverse_within_job",
        "replicas_to_migrate",
        "busy_threshold",
        "migration_tier",
        "tier_buffer_capacities",
    ),
    HeatConfig: ("half_life", "tick_interval", "tenant_tick_bytes"),
    EngineConfig: (
        "task_startup_overhead",
        "job_submit_overhead",
        "job_commit_overhead",
        "output_replication",
        "speculative_execution",
        "speculative_slowdown",
    ),
    ClusterConfig: (
        "num_nodes",
        "slots_per_node",
        "disk_capacity",
        "tier_preset",
        "block_size",
        "replication",
        "seed",
        "engine",
        "observability",
    ),
    ServeConfig: (
        "num_nodes",
        "num_objects",
        "num_requests",
        "base_rps",
        "zipf_s",
        "num_tenants",
        "diurnal_amplitude",
        "diurnal_period",
        "flash_crowds",
        "policy",
        "hint_objects",
        "batch_jobs",
        "seed",
    ),
    ObservabilityConfig: ("sim_events", "trace_path", "metrics_path"),
    ScaleConfig: (
        "num_nodes",
        "num_jobs",
        "seed",
        "mean_interarrival",
        "max_blocks_per_job",
        "ignem",
    ),
}


@pytest.mark.parametrize("config", FIELDS, ids=lambda config: config.__name__)
def test_config_fields_are_pinned(config):
    names = tuple(field.name for field in dataclasses.fields(config))
    assert names == FIELDS[config]


def test_config_field_total():
    assert sum(len(names) for names in FIELDS.values()) == 49


#: One case per ``IgnemConfig.__post_init__`` check: (overrides, error
#: message).
INVALID = [
    (dict(buffer_capacity=0), "buffer_capacity must be positive"),
    (dict(policy="lifo"), "unknown policy 'lifo'"),
    (dict(migration_tier=""), "migration_tier must be non-empty"),
    (
        dict(tier_buffer_capacities=()),
        "tier_buffer_capacities must be None or non-empty",
    ),
    (
        dict(tier_buffer_capacities=(("mem", GB), ("mem", GB))),
        "tier_buffer_capacities has duplicate tiers",
    ),
    (
        dict(tier_buffer_capacities=(("ssd", GB),)),
        "migration_tier must appear in tier_buffer_capacities",
    ),
    (
        dict(tier_buffer_capacities=(("mem", GB), ("", GB))),
        "tier names must be non-empty",
    ),
    (
        dict(tier_buffer_capacities=(("mem", 0),)),
        "tier 'mem': capacity must be positive",
    ),
    (dict(migration_concurrency=0), "migration_concurrency must be >= 1"),
    (dict(replicas_to_migrate=0), "replicas_to_migrate must be >= 1"),
    (dict(busy_threshold=0), "busy_threshold must be >= 1 or None"),
]


@pytest.mark.parametrize(
    "overrides, message", INVALID, ids=[message for _, message in INVALID]
)
def test_invalid_field_is_rejected(overrides, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        IgnemConfig(**overrides)


def test_defaults_and_boundaries_are_accepted():
    IgnemConfig()
    IgnemConfig(
        busy_threshold=1,
        tier_buffer_capacities=(("mem", GB), ("ssd", 2 * GB)),
    )


#: One case per validated field of the other config dataclasses
#: (``ObservabilityConfig`` validates nothing).
OTHER_INVALID = [
    (HeatConfig, dict(half_life=0.0), "half_life must be positive"),
    (HeatConfig, dict(tick_interval=0.0), "tick_interval must be positive"),
    (HeatConfig, dict(tenant_tick_bytes=0.0), "tenant_tick_bytes must be positive"),
    (EngineConfig, dict(task_startup_overhead=-1.0), "overheads must be non-negative"),
    (EngineConfig, dict(job_submit_overhead=-1.0), "overheads must be non-negative"),
    (EngineConfig, dict(job_commit_overhead=-1.0), "overheads must be non-negative"),
    (EngineConfig, dict(output_replication=0), "output replication must be >= 1"),
    (EngineConfig, dict(speculative_slowdown=1.0), "speculative_slowdown must be > 1"),
    (ClusterConfig, dict(num_nodes=0), "num_nodes must be >= 1"),
    (ClusterConfig, dict(disk_capacity=0.0), "disk_capacity must be positive"),
    (ClusterConfig, dict(block_size=0.0), "block_size must be positive"),
    (ClusterConfig, dict(tier_preset="tape"), "unknown tier_preset 'tape'"),
    (ServeConfig, dict(num_nodes=0), "num_nodes must be >= 1"),
    (ServeConfig, dict(num_objects=0), "num_objects must be >= 1"),
    (ServeConfig, dict(num_requests=0), "num_requests must be >= 1"),
    (ServeConfig, dict(base_rps=0.0), "base_rps must be positive"),
    (ServeConfig, dict(zipf_s=0.0), "zipf_s must be positive"),
    (ServeConfig, dict(num_tenants=0), "num_tenants must be >= 1"),
    (ServeConfig, dict(diurnal_amplitude=1.5), "diurnal_amplitude must be in [0, 1]"),
    (ServeConfig, dict(diurnal_period=0.0), "diurnal_period must be positive"),
    (ServeConfig, dict(flash_crowds=-1), "flash_crowds must be >= 0"),
    (ServeConfig, dict(policy="oracle"), "policy must be 'none', 'hint', or 'heat'"),
    (ServeConfig, dict(hint_objects=0), "hint_objects must be >= 1"),
    (ServeConfig, dict(batch_jobs=-1), "batch_jobs must be >= 0"),
    (ScaleConfig, dict(mean_interarrival=0.0), "mean_interarrival must be positive"),
]


@pytest.mark.parametrize(
    "config, overrides, message",
    OTHER_INVALID,
    ids=[
        f"{config.__name__}.{next(iter(overrides))}"
        for config, overrides, _ in OTHER_INVALID
    ],
)
def test_other_invalid_field_is_rejected(config, overrides, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        config(**overrides)


#: Every float a config ``__post_init__`` range-checks, set to NaN.  NaN
#: fails every comparison, so a check written ``x <= 0`` lets it through.
NAN = math.nan
NAN_CASES = [
    (IgnemConfig, dict(buffer_capacity=NAN)),
    (IgnemConfig, dict(tier_buffer_capacities=(("mem", NAN),))),
    (HeatConfig, dict(half_life=NAN)),
    (HeatConfig, dict(tick_interval=NAN)),
    (HeatConfig, dict(tenant_tick_bytes=NAN)),
    (EngineConfig, dict(task_startup_overhead=NAN)),
    (EngineConfig, dict(job_submit_overhead=NAN)),
    (EngineConfig, dict(job_commit_overhead=NAN)),
    (EngineConfig, dict(speculative_slowdown=NAN)),
    (ClusterConfig, dict(disk_capacity=NAN)),
    (ClusterConfig, dict(block_size=NAN)),
    (ServeConfig, dict(base_rps=NAN)),
    (ServeConfig, dict(zipf_s=NAN)),
    (ServeConfig, dict(diurnal_amplitude=NAN)),
    (ServeConfig, dict(diurnal_period=NAN)),
    (ScaleConfig, dict(mean_interarrival=NAN)),
]


@pytest.mark.parametrize(
    "config, overrides",
    NAN_CASES,
    ids=[f"{config.__name__}.{next(iter(overrides))}" for config, overrides in NAN_CASES],
)
def test_nan_is_rejected(config, overrides):
    with pytest.raises(ValueError):
        config(**overrides)
