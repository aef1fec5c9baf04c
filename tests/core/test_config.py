"""Every ``IgnemConfig`` validation check rejects its bad value."""

import re

import pytest

from repro.core import IgnemConfig
from repro.storage import GB

#: One case per ``__post_init__`` check: (overrides, error message).
INVALID = [
    (dict(buffer_capacity=0), "buffer_capacity must be positive"),
    (dict(cleanup_threshold=0), "cleanup_threshold must be in (0, 1]"),
    (dict(rpc_latency=-0.001), "rpc_latency must be non-negative"),
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
    (dict(busy_poll_interval=0), "busy_poll_interval must be positive"),
    (
        dict(migration_read_rate=0),
        "migration_read_rate must be positive or None",
    ),
    (dict(command_timeout=0), "command_timeout must be positive"),
    (dict(command_max_retries=-1), "command_max_retries must be >= 0"),
    (dict(command_backoff=-0.1), "command_backoff must be non-negative"),
    (dict(command_backoff_factor=0.5), "command_backoff_factor must be >= 1"),
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
        cleanup_threshold=1.0,
        rpc_latency=0.0,
        command_max_retries=0,
        command_backoff=0.0,
        command_backoff_factor=1.0,
        busy_threshold=1,
        tier_buffer_capacities=(("mem", GB), ("ssd", 2 * GB)),
    )
