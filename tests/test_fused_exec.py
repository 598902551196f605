"""Fused pipeline execution ≡ reference interpreter.

The fused engine (``engine/fuse.py``) collapses Scan→Filter→Project
chains into single per-batch drivers.  Fusion must be invisible: these
tests run the same queries through ``exec_mode="fused"`` and
``"interp"`` over physically identical databases and require
*exactly ordered* identical rows (fusion may never reorder, even without
an ORDER BY), identical cost counters, and identical subquery evaluation
cadence.  A hypothesis predicate sweep rides on top of the hand-picked
corpus, and the ORDER BY cases cover both the external sorter and the
merge join's interesting-order path.  One statement (or hand-built plan)
per fused path no other statement reaches keeps every driver of
``engine/fuse.py`` running under this suite.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro import Database
from repro.analysis.check import FUSED_PATH_QUERIES
from repro.engine.executor import resolve_exec_mode
from repro.sql import parse_statement
from repro.workloads import build_empdept

from tests.test_compiled_eval import (
    QUERY_CORPUS,
    _company,
    _predicates,
    _run,
)

MODES = ("fused", "interp")


@pytest.fixture(scope="module")
def company_trio() -> dict[str, Database]:
    """Physically identical databases, one per execution mode."""
    return {mode: _company(mode) for mode in MODES}


@pytest.fixture(scope="module")
def empdept_trio() -> dict[str, Database]:
    return {
        mode: build_empdept(employees=300, departments=12, seed=3)
        for mode in MODES
    }


def _run_mode(db: Database, sql: str, mode: str):
    db.exec_mode = mode
    db.storage.cold_cache()
    return _run(db, sql)


@pytest.mark.parametrize("sql", QUERY_CORPUS)
def test_fused_agrees_exactly_on_corpus(company_trio, sql):
    """Row-for-row, in order — fusion preserves the engine's sequence."""
    rows = {}
    deltas = {}
    for mode, db in company_trio.items():
        rows[mode], deltas[mode] = _run(db, sql)
    assert rows["fused"] == rows["interp"]
    assert deltas["fused"] == deltas["interp"]


#: Declared output orders the fused pipeline must reproduce exactly:
#: index-provided order, external sort (300 rows spill the workspace),
#: the merge join's interesting order, and order above aggregation.
ORDERED_QUERIES = (
    "SELECT NAME, SAL FROM EMP WHERE DNO <= 6 ORDER BY SAL DESC",
    "SELECT NAME, SAL FROM EMP ORDER BY SAL, NAME",
    "SELECT NAME, DNAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO "
    "ORDER BY EMP.DNO",
    "SELECT DNO, COUNT(*) FROM EMP GROUP BY DNO ORDER BY DNO",
    "SELECT DNO, AVG(SAL) FROM EMP GROUP BY DNO HAVING COUNT(*) > 1 "
    "ORDER BY DNO DESC",
)


@pytest.mark.parametrize("sql", ORDERED_QUERIES)
def test_order_by_is_order_exact(empdept_trio, sql):
    rows = {}
    deltas = {}
    for mode, db in empdept_trio.items():
        rows[mode], deltas[mode] = _run_mode(db, sql, mode)
    assert rows["fused"] == rows["interp"]
    assert deltas["fused"] == deltas["interp"]


def _agree(databases: dict[str, Database], run) -> list:
    """Rows, counters and subquery evaluation counts of ``run(db)`` under
    each engine from a cold buffer; asserts they agree, returns the rows."""
    seen = {}
    for mode, db in databases.items():
        db.exec_mode = mode
        db.storage.cold_cache()
        executor = db.executor()
        before = db.storage.counters.snapshot()
        rows = run(db, executor)
        seen[mode] = (
            rows,
            before.delta(db.storage.counters),
            executor.last_runtime.evaluation_counts,
        )
    assert seen["fused"] == seen["interp"]
    return seen["fused"][0]


@pytest.mark.parametrize("sql", FUSED_PATH_QUERIES)
def test_fused_paths_agree(empdept_trio, sql):
    rows = _agree(
        empdept_trio, lambda db, executor: executor.execute(db.plan(sql)).rows
    )
    assert rows, "the statement must return rows to mean anything"


@pytest.fixture(scope="module")
def hashjoin_pairs() -> list[dict[str, Database]]:
    from repro.analysis.check import hashjoin_corpus

    corpora = {mode: hashjoin_corpus() for mode in MODES}
    return [
        {mode: corpora[mode][index][0] for mode in MODES} for index in range(2)
    ]


@pytest.mark.parametrize(
    "index,sql",
    [
        (0, "SELECT T1.A, T2.J1 FROM T1, T2 "
            "WHERE T1.J1 = T2.J1 AND T2.B = 3 AND T1.A + T2.B > 5"),
        (1, "SELECT G1.A, G2.B FROM G1, G2 "
            "WHERE G1.J1 = G2.J1 AND G1.A + G2.B > 5"),
    ],
    ids=["in-memory", "grace"],
)
def test_hash_join_residual_agrees(hashjoin_pairs, index, sql):
    """The probe loop's residual, in memory and per grace partition."""
    from repro.analysis.check import _count_hash_joins

    databases = hashjoin_pairs[index]
    assert _count_hash_joins(databases["fused"].plan(sql)) == 1
    rows = _agree(
        databases, lambda db, executor: executor.execute(db.plan(sql)).rows
    )
    assert rows


def test_sorted_groups_leave_the_fold_in_batches():
    """More sorted groups than one output batch holds: the fold hands
    its groups on mid-stream, in the order the ``Row`` path gives."""
    from repro.engine.fuse import BREAKER_BATCH_SIZE
    from repro.workloads.empdept import load_rows

    databases = {}
    for mode in MODES:
        db = Database()
        db.execute("CREATE TABLE G (K INTEGER, V INTEGER)")
        load_rows(db, "G", [((i * 7) % 1500, i % 11) for i in range(1500)])
        db.execute("UPDATE STATISTICS")
        databases[mode] = db
    sql = "SELECT K, COUNT(*), SUM(V) FROM G GROUP BY K HAVING SUM(V) > 0"
    assert "sort by G.K" in databases["fused"].explain(sql)
    rows = _agree(
        databases, lambda db, executor: executor.execute(db.plan(sql)).rows
    )
    assert len(rows) > BREAKER_BATCH_SIZE


def test_index_probe_with_null_outer_keys():
    """A nested-loop inner reached through an index: an outer row whose
    join key is NULL opens no inner scan (a NULL bound matches nothing)."""
    from repro.workloads.empdept import load_rows

    databases = {}
    for mode in MODES:
        db = Database()
        db.execute("CREATE TABLE O (K INTEGER, V INTEGER)")
        db.execute("CREATE TABLE I (K INTEGER, W INTEGER)")
        db.execute("CREATE INDEX I_K ON I (K)")
        load_rows(db, "O", [(None if i % 3 == 0 else i, i) for i in range(12)])
        load_rows(db, "I", [(i % 400, i) for i in range(2000)])
        db.execute("UPDATE STATISTICS")
        databases[mode] = db
    sql = "SELECT O.V, I.W FROM O, I WHERE O.K = I.K"
    plan = databases["fused"].explain(sql)
    assert "nested-loop join (inner I)" in plan
    assert "scan I via index I_K" in plan
    rows = _agree(
        databases, lambda db, executor: executor.execute(db.plan(sql)).rows
    )
    assert len(rows) == 8 * 5


def _index_merge_plan(db: Database, sql: str):
    """``sql``'s two-way join as a merge join of two index-ordered scans,
    a plan the optimizer's search does not pick on this database."""
    from repro.baselines import LeftDeepBuilder
    from repro.optimizer.binder import Binder
    from repro.optimizer.plan import MergeJoinNode
    from repro.optimizer.predicates import to_cnf_factors

    block = Binder(db.catalog).bind(parse_statement(sql))
    factors = to_cnf_factors(block.where, block)
    optimizer = db.optimizer()
    builder = LeftDeepBuilder(
        block, factors, db.catalog, optimizer.estimator, optimizer.cost_model
    )
    [factor] = builder.equijoin_factors(frozenset({"D"}), "E")
    outer_column = factor.join.column_for("D")
    inner_column = factor.join.column_for("E")

    def ordered(alias, column):
        order = ((column.alias, column.position),)
        return next(
            candidate.node
            for candidate in builder.path_candidates(alias)
            if candidate.node.order_columns[:1] == order
        )

    outer = ordered("D", outer_column)
    inner = ordered("E", inner_column)
    join = MergeJoinNode(
        outer=outer,
        inner=inner,
        outer_column=outer_column,
        inner_column=inner_column,
        residual=builder.multi_residual(frozenset({"D"}), "E"),
        cost=outer.cost + inner.cost,
        rows=builder.subset_rows(frozenset({"D", "E"})),
        order_columns=outer.order_columns,
    )
    return optimizer.wrap_plan(block, factors, join)


def test_merge_join_with_index_ordered_inner(empdept_trio):
    """An inner that is not a sort rides the per-operator path
    tuple-at-a-time (``fuse._lazy_rows``), with the reference's trace."""
    from repro.optimizer.plan import IndexAccess, MergeJoinNode, walk_plan

    sql = (
        "SELECT D.DNAME, E.NAME FROM DEPT D, EMP E "
        "WHERE D.DNO = E.DNO AND E.SAL + D.DNO > 600"
    )
    plans = {mode: _index_merge_plan(db, sql) for mode, db in empdept_trio.items()}
    [join] = [
        node
        for node in walk_plan(plans["fused"].root)
        if isinstance(node, MergeJoinNode)
    ]
    assert isinstance(join.inner.access, IndexAccess)
    rows = _agree(
        empdept_trio,
        lambda db, executor: executor.execute(plans[db.exec_mode]).rows,
    )
    assert rows
    assert sorted(rows) == sorted(empdept_trio["interp"].execute(sql).rows)


def test_correlated_evaluation_cadence_identical(company_trio):
    """Fused drivers reuse the per-operator conjunction closures, so the
    per-referenced-tuple subquery re-evaluation pattern cannot change."""
    sql = (
        "SELECT E.NAME FROM EMPLOYEE E WHERE E.SALARY > "
        "(SELECT AVG(SALARY) FROM EMPLOYEE WHERE DNO = E.DNO)"
    )
    counts = {}
    for mode, db in company_trio.items():
        executor = db.executor()
        executor.execute(db.plan_query(parse_statement(sql)))
        counts[mode] = list(executor.last_runtime.evaluation_counts.values())
    assert counts["fused"] == counts["interp"]


def test_fused_is_the_default_mode():
    assert resolve_exec_mode() == "fused"
    assert resolve_exec_mode("interp") == "interp"
    with pytest.raises(ValueError):
        resolve_exec_mode("vectorized")


def test_dml_executes_under_fused_mode():
    """UPDATE/DELETE ride ``execute_rows`` → fused drivers with TIDs."""
    db = Database(exec_mode="fused")
    db.execute("CREATE TABLE T (A INTEGER, B INTEGER)")
    for i in range(20):
        db.execute(f"INSERT INTO T VALUES ({i}, {i * 10})")
    db.execute("UPDATE STATISTICS")
    db.execute("UPDATE T SET B = -1 WHERE A >= 10")
    assert db.execute("SELECT COUNT(*) FROM T WHERE B = -1").scalar() == 10
    db.execute("DELETE FROM T WHERE A < 5")
    assert db.execute("SELECT COUNT(*) FROM T").scalar() == 15


# ---------------------------------------------------------------------------
# hypothesis sweep: fused vs interp over NULL-laden data, order-exact
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_trio() -> dict[str, Database]:
    from repro.workloads.empdept import load_rows

    pair = {}
    for mode in MODES:
        db = Database(exec_mode=mode)
        db.execute("CREATE TABLE T (A INTEGER, B INTEGER, S VARCHAR(4))")
        rows = []
        for a in (None, -2, 0, 1, 3, 7):
            for b, s in ((None, "xy"), (2, None), (5, "yx"), (8, "xxxx")):
                rows.append((a, b, s))
        load_rows(db, "T", rows)
        db.execute("UPDATE STATISTICS")
        pair[mode] = db
    return pair


@settings(max_examples=60, deadline=None)
@given(predicate=_predicates())
def test_random_predicates_fused_order_exact(sweep_trio, predicate):
    sql = f"SELECT A, B, S FROM T WHERE {predicate}"
    rows = {}
    deltas = {}
    for mode, db in sweep_trio.items():
        rows[mode], deltas[mode] = _run(db, sql)
    assert rows["fused"] == rows["interp"]
    assert deltas["fused"] == deltas["interp"]
