"""Tests for the Hive layer: catalog, planner, hook, query execution."""

import pytest

from repro import build_paper_testbed
from repro.hive import (
    TPCDS_QUERIES,
    TPCDS_TABLES,
    HiveQuery,
    HiveSession,
    QueryStage,
    get_query,
    ignem_migration_hook,
    query_input_bytes,
)
from repro.hive.session import COMPILE_TIME
from repro.storage import GB


class TestCatalog:
    def test_paper_named_queries_present(self):
        ids = {q.query_id for q in TPCDS_QUERIES}
        assert {"q3", "q82", "q25", "q29"} <= ids

    def test_queries_sorted_by_input_size(self):
        sizes = [query_input_bytes(q) for q in TPCDS_QUERIES]
        assert sizes == sorted(sizes)

    def test_q3_smallest_q29_largest(self):
        sizes = {q.query_id: query_input_bytes(q) for q in TPCDS_QUERIES}
        assert min(sizes, key=sizes.get) == "q3"
        assert max(sizes, key=sizes.get) == "q29"

    def test_get_query(self):
        assert get_query("q3").query_id == "q3"
        with pytest.raises(KeyError):
            get_query("q999")

    def test_every_query_references_known_tables(self):
        for query in TPCDS_QUERIES:
            for table in query.tables:
                assert table in TPCDS_TABLES

    def test_stage_validation(self):
        with pytest.raises(ValueError):
            QueryStage(selectivity=0)
        with pytest.raises(ValueError):
            QueryStage(selectivity=0.5, shuffle_fraction=2)
        with pytest.raises(ValueError):
            QueryStage(selectivity=0.5, num_reduces=0)

    def test_query_validation(self):
        with pytest.raises(ValueError):
            HiveQuery("q", (), (QueryStage(selectivity=0.5),))
        with pytest.raises(ValueError):
            HiveQuery("q", ("t",), ())


class TestSession:
    def test_create_tables_idempotent(self):
        cluster = build_paper_testbed()
        session = HiveSession(cluster)
        session.create_tables(["date_dim"])
        session.create_tables(["date_dim"])  # no duplicate-create error
        assert cluster.namenode.exists("/tpcds/date_dim")

    def test_query_runs_all_stages(self):
        cluster = build_paper_testbed()
        session = HiveSession(cluster)
        query = get_query("q3")
        session.create_tables(query.tables)
        done = session.run_query(query)
        result = cluster.run(until=done)
        assert result.query_id == "q3"
        assert result.duration > 0
        # One MR job per stage.
        assert len(cluster.engine.jobs) == len(query.stages)

    def test_later_stages_read_intermediates(self):
        cluster = build_paper_testbed()
        session = HiveSession(cluster)
        query = get_query("q3")
        session.create_tables(query.tables)
        done = session.run_query(query)
        cluster.run(until=done)
        second_stage = cluster.engine.jobs[1]
        assert all(p.startswith("/out/") for p in second_stage.spec.input_paths)

    def test_compile_time_counted(self):
        cluster = build_paper_testbed()
        session = HiveSession(cluster)
        query = get_query("q3")
        session.create_tables(query.tables)
        done = session.run_query(query)
        result = cluster.run(until=done)
        assert result.duration >= COMPILE_TIME
        assert cluster.engine.jobs[0].submitted_at >= COMPILE_TIME

    def test_negative_compile_time_rejected(self):
        # The compile time is the constant COMPILE_TIME, not a
        # parameter: passing one is rejected outright.
        cluster = build_paper_testbed()
        with pytest.raises(TypeError):
            HiveSession(cluster, compile_time=-1)

    def test_results_accumulate(self):
        cluster = build_paper_testbed()
        session = HiveSession(cluster)
        session.create_tables()

        def analyst():
            yield session.run_query(get_query("q3"))
            yield session.run_query(get_query("q7"))

        cluster.env.process(analyst(), name="analyst")
        cluster.run()
        assert [r.query_id for r in session.results] == ["q3", "q7"]


class TestIgnemHook:
    def test_hook_triggers_migration(self):
        cluster = build_paper_testbed(ignem=True)
        session = HiveSession(cluster, hook=ignem_migration_hook)
        query = get_query("q3")
        session.create_tables(query.tables)
        done = session.run_query(query)
        cluster.run(until=done)
        assert cluster.ignem_master.metrics.value("ignem.master.migration_requests") == 1
        assert cluster.collector.completed_migrations()

    def test_hook_accelerates_query(self):
        def run(with_hook):
            cluster = build_paper_testbed(seed=2, ignem=with_hook)
            session = HiveSession(
                cluster, hook=ignem_migration_hook if with_hook else None
            )
            query = get_query("q3")
            session.create_tables(query.tables)
            done = session.run_query(query)
            return cluster.run(until=done).duration

        assert run(with_hook=True) < run(with_hook=False)

    def test_explicit_evict_after_query(self):
        cluster = build_paper_testbed(ignem=True)
        session = HiveSession(cluster, hook=ignem_migration_hook)
        query = get_query("q3")
        session.create_tables(query.tables)
        done = session.run_query(query)
        cluster.run(until=done)
        cluster.run()
        # All migrated bytes released after the query's evict call.
        assert sum(s.migrated_bytes for s in cluster.ignem_master.slaves()) == 0
