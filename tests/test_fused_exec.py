"""Fused pipeline execution ≡ reference interpreter.

The fused engine (``engine/fuse.py``) collapses Scan→Filter→Project
chains into single per-batch drivers.  Fusion must be invisible: these
tests run the same queries through ``exec_mode="fused"`` and
``"interp"`` over physically identical databases and require
*exactly ordered* identical rows (fusion may never reorder, even without
an ORDER BY), identical cost counters, and identical subquery evaluation
cadence.  A hypothesis predicate sweep rides on top of the hand-picked
corpus, and the ORDER BY cases cover both the external sorter and the
merge join's interesting-order path.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro import Database
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


def test_fused_is_the_default_mode(monkeypatch):
    monkeypatch.delenv("REPRO_EXEC", raising=False)
    assert resolve_exec_mode() == "fused"
    assert resolve_exec_mode("interp") == "interp"
    with pytest.raises(ValueError):
        resolve_exec_mode("vectorized")


def test_describe_chains_reports_fused_pipelines(empdept_trio):
    from repro.engine.fuse import describe_chains

    db = empdept_trio["fused"]
    planned = db.plan("SELECT NAME, SAL FROM EMP WHERE SAL > 400 AND JOB = 2")
    chains = describe_chains(planned.root)
    assert chains
    assert any("scan" in chain.lower() for chain in chains)


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
