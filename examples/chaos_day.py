#!/usr/bin/env python3
"""Chaos day: a production-shaped cluster surviving everything at once.

Runs a mixed workload (recurring log jobs + one big sort + a Hive query)
on an Ignem cluster with every resilience feature enabled — HA master
pair, re-replication, task retry, speculative execution — while a chaos
process kills a server and the primary Ignem master mid-flight.

The point: with proactive migration AND the substrate's fault tolerance,
everything completes, data stays at full replication, and no migrated
memory leaks.

Run:  python examples/chaos_day.py
"""

from repro import IgnemConfig, JobSpec, build_paper_testbed
from repro.hive import HiveSession, get_query, ignem_migration_hook
from repro.mapreduce import EngineConfig
from repro.storage import GB, MB
from repro.workloads.sort import SORT_INPUT_PATH, make_sort_spec


def main() -> None:
    engine = EngineConfig(speculative_execution=True)
    cluster = build_paper_testbed(seed=99, engine_config=engine)
    ha = cluster.enable_ignem(IgnemConfig(), ha=True)
    cluster.enable_rereplication()

    # Datasets: recurring logs, the 20GB sort input, one warehouse table.
    for index in range(4):
        cluster.client.create_file(f"/logs/part-{index}", 1 * GB)
    cluster.client.create_file(SORT_INPUT_PATH, 20 * GB)
    session = HiveSession(cluster, hook=ignem_migration_hook)
    query = get_query("q3")
    session.create_tables(query.tables)

    jobs = []

    def workload(env):
        # Recurring log analyses arrive every 30s.
        for index in range(4):
            jobs.append(
                cluster.engine.submit_job(
                    JobSpec(
                        f"logscan-{index}",
                        (f"/logs/part-{index}",),
                        shuffle_bytes=64 * MB,
                        num_reduces=2,
                    )
                )
            )
            yield env.timeout(30)
        # The big sort lands in the middle of everything.
        jobs.append(cluster.engine.submit_job(make_sort_spec(20 * GB)))
        # And an analyst fires a Hive query.
        yield session.run_query(query)

    def chaos(env):
        # Strike in the middle of the sort's map waves so running
        # containers actually die and must be retried elsewhere.
        yield env.timeout(135)
        print(f"[{env.now:6.1f}s] CHAOS: killing server node5 mid-sort")
        cluster.fail_node("node5")
        yield env.timeout(15)
        print(f"[{env.now:6.1f}s] CHAOS: killing the primary Ignem master")
        ha.fail_primary()
        print(f"[{env.now:6.1f}s]        standby took over instantly")

    cluster.env.process(workload(cluster.env), name="workload")
    cluster.env.process(chaos(cluster.env), name="chaos")
    cluster.run()

    print(f"\n[{cluster.env.now:6.1f}s] everything drained. Outcomes:")
    for job in jobs:
        print(f"  {job.spec.name:<12} {job.duration:7.1f}s "
              f"(maps={job.num_maps}, speculative={job.speculative_attempts})")
    print(f"  {query.query_id:<12} {session.results[0].duration:7.1f}s (Hive)")

    retried = cluster.rm.tasks_retried
    copies = cluster.metrics.counter("dfs.repair.copies_completed").value
    ram_reads = sum(1 for r in cluster.collector.block_reads if r.source == "ram")
    resident = sum(s.migrated_bytes for s in cluster.ignem_slaves.values())
    print(f"\ntasks retried after the node kill: {retried}")
    print(f"blocks re-replicated to restore fault tolerance: {copies}")
    print(f"block reads served from migrated memory: {ram_reads}")
    print(f"Ignem master failovers: {ha.failovers}")
    print(f"migrated bytes still resident (leak check): {resident:.0f}")

    # Verify replication is fully restored.
    degraded = cluster.replication_monitor.under_replicated_blocks()
    print(f"under-replicated blocks remaining: {len(degraded)}")


if __name__ == "__main__":
    main()
