"""The cost auditor: accepts real costings, rejects corrupted ones.

Covers the three layers of ``repro.analysis.cost_audit``: the per-plan
numeric audit (selectivities in [0, 1], cost monotonicity, the paper's
``C-outer + N * C-inner`` join shape), the TABLE 2 re-derivation over a
catalog, and the DP prune-admissibility audit.  Also holds the regression
tests for bugs the auditor itself found on the seed workloads.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.analysis.check import verifying_optimizer
from repro.analysis.cost_audit import (
    audit_cost_model,
    audit_search_stats,
    audit_statement,
)
from repro.catalog.statistics import IndexStats, RelationStats
from repro.optimizer.cost import Cost
from repro.optimizer.joins import PrunedCandidate, SearchStats
from repro.optimizer.orders import UNORDERED
from repro.optimizer.plan import (
    AggregateNode,
    HashJoinNode,
    MergeJoinNode,
    NestedLoopJoinNode,
    ScanNode,
    SegmentAccess,
    SortNode,
    walk_plan,
)
from repro.optimizer.selectivity import SelectivityEstimator
from repro.sql import parse_statement
from repro.workloads.empdept import FIG1_QUERY


def plan(db, sql):
    """Plan without verification so tests can corrupt the result."""
    return db.optimizer().plan_query(parse_statement(sql))


def rules(violations):
    return {violation.rule for violation in violations}


def scan_of(db, table_name, cost, rows):
    return ScanNode(
        alias=table_name,
        table=db.catalog.table(table_name),
        access=SegmentAccess(),
        cost=cost,
        rows=rows,
    )


# ---------------------------------------------------------------------------
# clean plans audit cleanly
# ---------------------------------------------------------------------------


def test_clean_statement_audits_cleanly(empdept):
    planned = plan(empdept, FIG1_QUERY)
    assert audit_statement(planned, empdept.catalog) == []


def test_cost_model_audits_cleanly(empdept):
    violations = audit_cost_model(
        empdept.catalog, empdept.w, empdept.storage.buffer.capacity
    )
    assert violations == []


# ---------------------------------------------------------------------------
# corrupted costings are rejected
# ---------------------------------------------------------------------------


def test_rejects_negative_cost(empdept):
    planned = plan(empdept, "SELECT * FROM EMP")
    scan = next(n for n in walk_plan(planned.root) if isinstance(n, ScanNode))
    scan.cost = Cost(-1.0, scan.cost.rsi)
    assert "negative-estimate" in rules(
        audit_statement(planned, empdept.catalog)
    )


def test_rejects_non_finite_cost(empdept):
    planned = plan(empdept, "SELECT * FROM EMP")
    scan = next(n for n in walk_plan(planned.root) if isinstance(n, ScanNode))
    scan.cost = Cost(float("nan"), scan.cost.rsi)
    assert "non-finite" in rules(audit_statement(planned, empdept.catalog))


def test_rejects_rows_exceeding_ncard(empdept):
    planned = plan(empdept, "SELECT * FROM EMP")
    scan = next(n for n in walk_plan(planned.root) if isinstance(n, ScanNode))
    scan.rows = 1e9  # NCARD(EMP) is 400; some selectivity escaped [0, 1]
    assert "rows-exceed-ncard" in rules(
        audit_statement(planned, empdept.catalog)
    )


def test_rejects_out_of_range_selectivity(empdept, monkeypatch):
    planned = plan(empdept, "SELECT NAME FROM EMP WHERE SAL > 500")
    monkeypatch.setattr(
        SelectivityEstimator, "factor_selectivity", lambda self, factor: 1.5
    )
    assert "selectivity-out-of-range" in rules(
        audit_statement(planned, empdept.catalog)
    )


def test_rejects_inconsistent_nested_loop(empdept):
    planned = plan(empdept, "SELECT * FROM EMP")
    outer = scan_of(empdept, "EMP", Cost(10.0, 400.0), rows=400.0)
    inner = scan_of(empdept, "DEPT", Cost(2.0, 20.0), rows=20.0)
    # The paper's shape demands RSI = C-outer + N * C-inner = 400 + 400*20.
    planned.root = NestedLoopJoinNode(
        outer=outer, inner=inner, cost=Cost(10.0, 400.0), rows=100.0
    )
    assert "nested-loop-inconsistent" in rules(
        audit_statement(planned, empdept.catalog)
    )


def test_rejects_merge_cheaper_than_inputs(empdept):
    joined = plan(
        empdept, "SELECT NAME, DNAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO"
    )
    join = next(f.join for f in joined.factors if f.join is not None)
    planned = plan(empdept, "SELECT * FROM EMP")
    planned.root = MergeJoinNode(
        outer=scan_of(empdept, "EMP", Cost(10.0, 400.0), rows=400.0),
        inner=scan_of(empdept, "DEPT", Cost(2.0, 20.0), rows=20.0),
        outer_column=join.left,
        inner_column=join.right,
        cost=Cost(5.0, 100.0),  # below the sum of its ordered inputs
        rows=400.0,
    )
    assert "merge-inconsistent" in rules(
        audit_statement(planned, empdept.catalog)
    )


def test_rejects_sort_changing_rows(empdept):
    planned = plan(empdept, "SELECT * FROM EMP")
    child = scan_of(empdept, "EMP", Cost(10.0, 400.0), rows=400.0)
    planned.root = SortNode(
        child=child, keys=[], cost=Cost(40.0, 1200.0), rows=800.0
    )
    assert "sort-changes-rows" in rules(
        audit_statement(planned, empdept.catalog)
    )


def test_rejects_cost_not_monotone(empdept):
    planned = plan(empdept, "SELECT * FROM EMP")
    child = scan_of(empdept, "EMP", Cost(10.0, 400.0), rows=400.0)
    planned.root = SortNode(
        child=child, keys=[], cost=Cost(1.0, 1.0), rows=400.0
    )
    assert "cost-not-monotone" in rules(
        audit_statement(planned, empdept.catalog)
    )


def test_rejects_whole_input_aggregate_cardinality(empdept):
    planned = plan(empdept, "SELECT * FROM EMP")
    child = scan_of(empdept, "EMP", Cost(10.0, 400.0), rows=400.0)
    planned.root = AggregateNode(
        child=child,
        group_by=[],
        aggregates=[],
        cost=Cost(10.0, 400.0),
        rows=3.0,
    )
    assert "aggregate-cardinality" in rules(
        audit_statement(planned, empdept.catalog)
    )


def test_rejects_groups_exceeding_input(empdept):
    planned = plan(empdept, "SELECT DNO, COUNT(*) FROM EMP GROUP BY DNO")
    agg = next(
        n for n in walk_plan(planned.root) if isinstance(n, AggregateNode)
    )
    agg.rows = agg.child.rows * 2.0
    assert "groups-exceed-input" in rules(
        audit_statement(planned, empdept.catalog)
    )


def test_rejects_bad_statistics(db):
    db.execute("CREATE TABLE T (A INTEGER)")
    db.catalog.set_relation_stats(
        "T", RelationStats(ncard=5, tcard=50, fraction=2.0)
    )
    violations = audit_cost_model(db.catalog, db.w, db.storage.buffer.capacity)
    assert "bad-statistics" in rules(violations)


# ---------------------------------------------------------------------------
# the hash-join formula audit
# ---------------------------------------------------------------------------


@pytest.fixture
def hash_db():
    from tests.test_hash_join import _wide_pair_db

    keys1 = [None if i % 9 == 0 else i % 8 for i in range(120)]
    keys2 = [None if i % 7 == 0 else i % 8 for i in range(150)]
    return _wide_pair_db(keys1, keys2)


def hash_plan_of(db):
    planned = plan(db, "SELECT T1.V, T2.W FROM T1, T2 WHERE T1.K = T2.K")
    node = next(
        n for n in walk_plan(planned.root) if isinstance(n, HashJoinNode)
    )
    return planned, node


def test_clean_hash_plan_audits_cleanly(hash_db):
    planned, node = hash_plan_of(hash_db)
    assert node.partitions > 1  # the grace path is the one audited here
    assert audit_statement(planned, hash_db.catalog) == []


def test_rejects_wrong_build_side(hash_db):
    planned, node = hash_plan_of(hash_db)
    node.inner.rows = node.outer.rows + node.inner.rows + 1.0
    assert "hash-build-side" in rules(
        audit_statement(planned, hash_db.catalog)
    )


def test_rejects_tampered_hash_rsi(hash_db):
    planned, node = hash_plan_of(hash_db)
    node.cost = Cost(node.cost.pages, node.cost.rsi * 2.0)
    assert "hash-inconsistent" in rules(
        audit_statement(planned, hash_db.catalog)
    )


def test_rejects_tampered_hash_pages(hash_db):
    planned, node = hash_plan_of(hash_db)
    node.cost = Cost(node.cost.pages + 9.0, node.cost.rsi)
    assert "hash-inconsistent" in rules(
        audit_statement(planned, hash_db.catalog)
    )


def test_rejects_dropped_grace_spill_term(hash_db):
    # Claiming an in-memory join while the cost still carries the spill
    # term (or vice versa) must not re-derive.
    planned, node = hash_plan_of(hash_db)
    node.partitions = 1
    assert "hash-inconsistent" in rules(
        audit_statement(planned, hash_db.catalog)
    )


# ---------------------------------------------------------------------------
# composite-prefix statistics audit
# ---------------------------------------------------------------------------


def _two_column_indexed(db):
    db.execute("CREATE TABLE T (A INTEGER, B INTEGER)")
    db.execute("CREATE INDEX T_AB ON T (A, B)")
    for i in range(10):
        db.execute(f"INSERT INTO T VALUES ({i % 5}, {i})")
    db.execute("UPDATE STATISTICS")
    return db.catalog.index_stats("T_AB")


def test_collected_prefix_statistics_audit_cleanly(db):
    stats = _two_column_indexed(db)
    assert stats.prefix_icards == (5, 10)
    assert (
        audit_cost_model(db.catalog, db.w, db.storage.buffer.capacity) == []
    )


@pytest.mark.parametrize(
    "prefix_icards",
    [
        (5, 9),  # full-width prefix cardinality must equal ICARD
        (12, 10),  # cardinality cannot shrink as the prefix widens
        (10,),  # one entry per key column
    ],
    ids=["icard-mismatch", "decreasing", "truncated"],
)
def test_rejects_inconsistent_prefix_statistics(db, prefix_icards):
    _two_column_indexed(db)
    db.catalog.set_index_stats(
        "T_AB", IndexStats(10, 1, 0, 4, prefix_icards=prefix_icards)
    )
    violations = audit_cost_model(db.catalog, db.w, db.storage.buffer.capacity)
    assert "bad-statistics" in rules(violations)


# ---------------------------------------------------------------------------
# the DP prune audit
# ---------------------------------------------------------------------------


def test_rejects_inadmissible_prune():
    mask = 0b11  # {A, B}
    stats = SearchStats(alias_order=("A", "B"))
    stats.survivor_totals[(mask, UNORDERED)] = 10.0
    stats.pruned.append(PrunedCandidate(mask, UNORDERED, 5.0))
    assert "inadmissible-prune" in rules(audit_search_stats(stats))


def test_rejects_prune_without_survivor():
    stats = SearchStats(alias_order=("A", "B"))
    stats.pruned.append(PrunedCandidate(0b01, UNORDERED, 5.0))
    assert "prune-without-survivor" in rules(audit_search_stats(stats))


def test_accepts_admissible_prune():
    mask = 0b11  # {A, B}
    stats = SearchStats(alias_order=("A", "B"))
    stats.survivor_totals[(mask, UNORDERED)] = 10.0
    stats.pruned.append(PrunedCandidate(mask, UNORDERED, 15.0))
    assert audit_search_stats(stats) == []


def test_real_search_prunes_are_admissible(empdept):
    planned = verifying_optimizer(empdept).plan_query(
        parse_statement(FIG1_QUERY)
    )
    stats = planned.search_stats
    assert stats is not None and stats.pruned  # the DP really discarded plans
    assert audit_search_stats(stats) == []


def test_rejects_bound_prune_within_bound():
    # Pruning at exactly U could discard a prefix of a plan costing U.
    stats = SearchStats(alias_order=("A", "B", "C"), bound=10.0)
    stats.bound_pruned.append(PrunedCandidate(0b011, UNORDERED, 10.0))
    assert "bound-prune-within-bound" in rules(audit_search_stats(stats))


def test_rejects_bound_below_optimum():
    stats = SearchStats(alias_order=("A", "B", "C"), bound=10.0)
    stats.chosen_total = 12.0
    assert "bound-below-optimum" in rules(audit_search_stats(stats))


def test_accepts_admissible_bound():
    stats = SearchStats(alias_order=("A", "B", "C"), bound=10.0)
    stats.bound_pruned.append(PrunedCandidate(0b011, UNORDERED, 10.5))
    stats.chosen_total = 10.0
    assert audit_search_stats(stats) == []


def test_real_bound_prunes_are_admissible(empdept):
    planned = verifying_optimizer(empdept).plan_query(
        parse_statement(FIG1_QUERY)
    )
    stats = planned.search_stats
    assert stats is not None and stats.bound_pruned  # the bound really pruned
    assert stats.chosen_total is not None and stats.chosen_total <= stats.bound
    assert audit_search_stats(stats) == []


# ---------------------------------------------------------------------------
# regression tests for bugs the auditor found on the seed workloads
# ---------------------------------------------------------------------------


def test_group_estimate_clamped_to_input(empdept):
    """Selective predicates under GROUP BY: groups must not exceed input.

    ``block_output_cardinality``'s no-statistics fallback used to return
    ``max(1, QCARD/10)`` which exceeds QCARD whenever QCARD < 1; the cost
    auditor flagged this as groups-exceed-input on the seed workload.
    """
    sql = (
        "SELECT DNAME, COUNT(*) FROM DEPT WHERE DNO = 3 AND LOC = 'DENVER' "
        "GROUP BY DNAME"
    )
    planned = verifying_optimizer(empdept).plan_query(parse_statement(sql))
    agg = next(
        n for n in walk_plan(planned.root) if isinstance(n, AggregateNode)
    )
    assert agg.rows <= agg.child.rows + 1e-9


def test_empty_relation_statistics():
    """UPDATE STATISTICS on an empty relation must keep P(T) in (0, 1].

    The collector used to store P(T) = 0.0 for a relation with no pages,
    which divides segment-scan costs by zero; the catalog audit flagged it
    as bad-statistics.
    """
    db = Database()
    db.execute("CREATE TABLE EMPTY_REL (A INTEGER, B INTEGER)")
    db.execute("CREATE INDEX EMPTY_A ON EMPTY_REL (A)")
    db.execute("UPDATE STATISTICS")
    stats = db.catalog.relation_stats("EMPTY_REL")
    assert stats is not None
    assert stats.ncard == 0 and stats.tcard == 0
    assert 0.0 < stats.fraction <= 1.0
    assert (
        audit_cost_model(db.catalog, db.w, db.storage.buffer.capacity) == []
    )
    # The empty relation must still be plannable with verification on.
    verifying_optimizer(db).plan_query(
        parse_statement("SELECT * FROM EMPTY_REL WHERE A = 1")
    )
