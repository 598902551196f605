"""Unit tests for whole-statement planning."""

import pytest

from repro.optimizer.plan import (
    AggregateNode,
    DistinctNode,
    IndexAccess,
    MergeJoinNode,
    NestedLoopJoinNode,
    ProjectNode,
    ScanNode,
    SortNode,
    walk_plan,
)
from repro.workloads import FIG1_QUERY


def nodes_of(planned, node_type):
    return [n for n in walk_plan(planned.root) if isinstance(n, node_type)]


class TestSingleRelationPlans:
    def test_project_at_root(self, empdept):
        planned = empdept.plan("SELECT NAME FROM EMP")
        assert isinstance(planned.root, ProjectNode)

    def test_equal_predicate_picks_index(self, empdept):
        planned = empdept.plan("SELECT NAME FROM EMP WHERE DNO = 3")
        scan = nodes_of(planned, ScanNode)[0]
        assert isinstance(scan.access, IndexAccess)
        assert scan.access.index.name == "EMP_DNO"

    def test_tiny_table_prefers_segment_scan_over_unique_index(self, empdept):
        from repro.optimizer.plan import SegmentAccess

        # DEPT occupies a single page: TCARD/P = 1 beats the unique-index
        # formula's 1 + 1 + W, so the segment scan must win.
        planned = empdept.plan("SELECT DNAME FROM DEPT WHERE DNO = 3")
        scan = nodes_of(planned, ScanNode)[0]
        assert isinstance(scan.access, SegmentAccess)
        assert planned.estimated_cost.pages < 2.0

    def test_unique_index_for_large_table(self, db):
        db.execute("CREATE TABLE BIG (ID INTEGER, V INTEGER)")
        db.execute("CREATE UNIQUE INDEX BIG_ID ON BIG (ID)")
        from repro.workloads import load_rows

        load_rows(db, "BIG", [(i, i % 7) for i in range(3000)])
        db.execute("UPDATE STATISTICS")
        planned = db.plan("SELECT V FROM BIG WHERE ID = 1234")
        scan = [n for n in walk_plan(planned.root) if isinstance(n, ScanNode)][0]
        assert isinstance(scan.access, IndexAccess)
        assert scan.access.index.name == "BIG_ID"
        # Table 2, row 1: 1 + 1 + W.
        assert planned.estimated_cost.pages == pytest.approx(2.0)
        assert planned.estimated_cost.rsi == pytest.approx(1.0)

    def test_unselective_predicate_picks_segment_scan(self, empdept):
        from repro.optimizer.plan import SegmentAccess

        planned = empdept.plan("SELECT NAME FROM EMP WHERE SAL > 0.0")
        scan = nodes_of(planned, ScanNode)[0]
        assert isinstance(scan.access, SegmentAccess)

    def test_order_by_indexed_column_avoids_sort(self, empdept):
        planned = empdept.plan("SELECT DNO FROM EMP ORDER BY DNO")
        assert not nodes_of(planned, SortNode)
        scan = nodes_of(planned, ScanNode)[0]
        assert isinstance(scan.access, IndexAccess)

    def test_order_by_unindexed_column_sorts(self, empdept):
        planned = empdept.plan("SELECT SAL FROM EMP ORDER BY SAL")
        assert len(nodes_of(planned, SortNode)) == 1

    def test_order_by_desc_sorts(self, empdept):
        planned = empdept.plan("SELECT DNO FROM EMP ORDER BY DNO DESC")
        assert len(nodes_of(planned, SortNode)) == 1

    def test_distinct_node(self, empdept):
        planned = empdept.plan("SELECT DISTINCT DNO FROM EMP")
        assert isinstance(planned.root, DistinctNode)


class TestAggregation:
    def test_group_by_gets_aggregate_node(self, empdept):
        planned = empdept.plan("SELECT DNO, AVG(SAL) FROM EMP GROUP BY DNO")
        aggregates = nodes_of(planned, AggregateNode)
        assert len(aggregates) == 1
        assert [c.name for c in aggregates[0].aggregates] == ["AVG"]

    def test_group_by_indexed_column_avoids_sort(self, empdept):
        planned = empdept.plan("SELECT DNO, COUNT(*) FROM EMP GROUP BY DNO")
        assert not nodes_of(planned, SortNode)

    def test_group_by_unindexed_column_sorts(self, empdept):
        planned = empdept.plan("SELECT JOB, SAL, COUNT(*) FROM EMP GROUP BY JOB, SAL")
        assert len(nodes_of(planned, SortNode)) == 1

    def test_ungrouped_aggregate(self, empdept):
        planned = empdept.plan("SELECT COUNT(*) FROM EMP")
        aggregate = nodes_of(planned, AggregateNode)[0]
        assert not aggregate.group_by
        assert planned.root.rows == pytest.approx(1.0)


class TestJoins:
    def test_fig1_query_plans(self, empdept):
        planned = empdept.plan(FIG1_QUERY)
        joins = nodes_of(planned, NestedLoopJoinNode) + nodes_of(
            planned, MergeJoinNode
        )
        assert len(joins) == 2
        scans = nodes_of(planned, ScanNode)
        assert {scan.alias for scan in scans} == {"EMP", "DEPT", "JOB"}

    def test_join_predicate_pushed_to_inner(self, empdept):
        planned = empdept.plan(
            "SELECT NAME, DNAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO"
        )
        nl_joins = nodes_of(planned, NestedLoopJoinNode)
        assert nl_joins
        inner = nl_joins[0].inner
        # The join predicate rides the inner scan as a probe SARG (or as
        # index bounds), never as a post-join filter.
        assert inner.sargs or (
            isinstance(inner.access, IndexAccess) and inner.access.low
        )
        assert not nl_joins[0].residual

    def test_join_probe_uses_index_when_inner_exceeds_buffer(self, db):
        from repro.workloads import load_rows

        db.storage.buffer.capacity = 8
        db.execute("CREATE TABLE BIGT (K INTEGER, PAD VARCHAR(80))")
        db.execute("CREATE TABLE SMALL (K INTEGER)")
        load_rows(db, "BIGT", [(i % 50, "x" * 72) for i in range(3000)])
        load_rows(db, "SMALL", [(i,) for i in range(10)])
        db.execute("CREATE INDEX BIGT_K ON BIGT (K) CLUSTER")
        db.execute("UPDATE STATISTICS")
        planned = db.plan(
            "SELECT SMALL.K FROM SMALL, BIGT WHERE SMALL.K = BIGT.K"
        )
        nl_joins = nodes_of(planned, NestedLoopJoinNode)
        assert nl_joins
        inner = nl_joins[0].inner
        assert inner.alias == "BIGT"
        assert isinstance(inner.access, IndexAccess)
        assert inner.access.low  # probe bound from the outer column

    def test_subquery_plans_attached(self, empdept):
        planned = empdept.plan(
            "SELECT NAME FROM EMP WHERE SAL > (SELECT AVG(SAL) FROM EMP)"
        )
        assert len(planned.subquery_plans) == 1

    def test_nested_subquery_plans_attached(self, empdept):
        planned = empdept.plan(
            "SELECT NAME FROM EMP WHERE DNO IN (SELECT DNO FROM DEPT "
            "WHERE LOC = 'DENVER') AND SAL > (SELECT AVG(SAL) FROM EMP)"
        )
        assert len(planned.subquery_plans) == 2

    def test_search_stats_present(self, empdept):
        planned = empdept.plan(FIG1_QUERY)
        assert planned.search_stats is not None
        assert planned.search_stats.plans_considered > 0


class TestCostOrdering:
    def test_optimizer_cost_at_most_naive(self, empdept):
        from repro.baselines import NaivePlanner
        from repro.optimizer.binder import Binder
        from repro.sql import parse_statement

        optimizer = empdept.optimizer()
        block = Binder(empdept.catalog).bind(parse_statement(FIG1_QUERY))
        chosen = optimizer.plan_block(block)
        naive = NaivePlanner(optimizer, empdept.catalog).plan_block(
            Binder(empdept.catalog).bind(parse_statement(FIG1_QUERY))
        )
        assert chosen.estimated_total() <= naive.estimated_total() + 1e-9

    def test_explain_renders(self, empdept):
        text = empdept.explain(FIG1_QUERY)
        assert "estimated cost" in text
        assert "scan" in text


class TestInListPlans:
    """An IN list with a repeated or NULL literal plans like its distinct
    non-NULL literals: one SARG group each, so one value keeps the index."""

    @pytest.fixture(scope="class")
    def indexed(self):
        from repro import Database
        from repro.workloads import load_rows

        db = Database()
        db.execute("CREATE TABLE T (A INTEGER, B INTEGER)")
        load_rows(db, "T", [(i % 100, i) for i in range(2000)])
        db.execute("CREATE INDEX T_A ON T (A)")
        db.execute("UPDATE STATISTICS")
        return db

    @pytest.mark.parametrize(
        "where",
        [
            "A IN (5)",
            "A IN (5, 5, 5, 5, 5, 5, 5, 5)",
            "A IN (5, NULL)",
            "A IN (NULL, 5, 5)",
        ],
    )
    def test_one_distinct_value_uses_the_index(self, indexed, where):
        sql = f"SELECT B FROM T WHERE {where}"
        planned = indexed.plan(sql)
        scan = nodes_of(planned, ScanNode)[0]
        assert isinstance(scan.access, IndexAccess)
        assert scan.access.index.name == "T_A"
        assert [len(group) for sarg in scan.sargs for group in sarg.groups] == [1]
        assert scan.rows == pytest.approx(20.0)
        expected = sorted(b for b in range(2000) if b % 100 == 5)
        assert sorted(row[0] for row in indexed.execute(sql).rows) == expected

    def test_duplicates_collapse_to_distinct_groups(self, indexed):
        sql = "SELECT B FROM T WHERE A IN (5, 7, 5, NULL, 7)"
        scan = nodes_of(indexed.plan(sql), ScanNode)[0]
        groups = [group for sarg in scan.sargs for group in sarg.groups]
        assert [str(group[0].value) for group in groups] == ["5", "7"]
        assert scan.rows == pytest.approx(40.0)
        expected = sorted(b for b in range(2000) if b % 100 in (5, 7))
        assert sorted(row[0] for row in indexed.execute(sql).rows) == expected

    def test_only_nulls_match_nothing(self, indexed):
        sql = "SELECT B FROM T WHERE A IN (NULL, NULL)"
        assert indexed.execute(sql).rows == []

    def test_not_in_with_null_matches_nothing(self, indexed):
        # NOT IN (5, NULL) is A <> 5 AND A <> NULL: unknown for every row.
        sql = "SELECT B FROM T WHERE A NOT IN (5, NULL)"
        assert indexed.execute(sql).rows == []
        kept = indexed.execute("SELECT B FROM T WHERE A NOT IN (5, 5)").rows
        assert sorted(row[0] for row in kept) == sorted(
            b for b in range(2000) if b % 100 != 5
        )
