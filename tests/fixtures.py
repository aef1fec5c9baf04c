"""Shared cluster builders for the test suite.

One copy of "build a paper testbed, enable Ignem, tweak one knob" for
every test module:

* :func:`make_ignem_cluster` — the Ignem-enabled testbed (optionally as
  an HA pair, optionally with the re-replication monitor);
* :func:`make_dfs_cluster` — the plain DFS testbed with re-replication
  (no Ignem);
* :func:`oracle_context` — a DST oracle context over a hand-built
  cluster.
"""

from types import SimpleNamespace

from repro import IgnemConfig, build_paper_testbed
from repro.faults import FaultInjector, FaultSchedule


def make_ignem_cluster(
    num_nodes=4,
    replication=2,
    seed=13,
    config=None,
    ha=False,
    rereplication=False,
    **config_kwargs,
):
    """Paper testbed with Ignem enabled.

    ``config`` wins over ``config_kwargs`` (which are ``IgnemConfig``
    fields, e.g. ``buffer_capacity=128 * MB``).  With ``ha=True``
    returns ``(cluster, ha_pair)``; otherwise just the cluster.
    """
    cluster = build_paper_testbed(
        num_nodes=num_nodes, replication=replication, seed=seed
    )
    if rereplication:
        cluster.enable_rereplication()
    if config is None:
        config = IgnemConfig(**config_kwargs)
    elif config_kwargs:
        raise TypeError("pass either config or config kwargs, not both")
    pair = cluster.enable_ignem(config, ha=ha)
    return (cluster, pair) if ha else cluster


def make_dfs_cluster(num_nodes=4, replication=2, seed=3):
    """Plain DFS testbed (no Ignem) with the re-replication monitor."""
    cluster = build_paper_testbed(
        num_nodes=num_nodes, replication=replication, seed=seed
    )
    cluster.enable_rereplication()
    return cluster


def oracle_context(cluster, injector=None):
    """Just enough context for the DST oracles that read only the
    cluster and the fault injector (``end_state``, ``locality_index``,
    ``replication``, ``no_data_loss``); a fault-free injector by
    default."""
    if injector is None:
        injector = FaultInjector(cluster, FaultSchedule(()))
    return SimpleNamespace(cluster=cluster, injector=injector)
