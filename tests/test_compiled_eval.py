"""Compiled expression evaluation ≡ reference interpreter, differentially.

The engine compiles bound expressions into closures (``engine/compile.py``)
while :func:`repro.engine.evaluator.evaluate` stays behind as the executable
specification.  These tests run the same queries through the engine that
runs every compiled program — ``exec_mode="fused"`` — and through
``exec_mode="interp"`` over physically identical databases and require
identical rows, identical cost counters, and identical subquery
evaluation counts.  A hypothesis sweep generates
random predicates (with NULLs in the data, so three-valued logic is
exercised) on top of the hand-picked corpus.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.errors import ExecutionError
from repro.workloads import FIG1_QUERY, build_empdept
from repro.workloads.empdept import load_rows

MODES = ("fused", "interp")


def _company(exec_mode: str) -> Database:
    db = Database(exec_mode=exec_mode)
    db.execute(
        "CREATE TABLE EMPLOYEE (ENO INTEGER, NAME VARCHAR(20), SALARY INTEGER, "
        "BONUS FLOAT, MANAGER INTEGER, DNO INTEGER)"
    )
    db.execute("CREATE TABLE DEPARTMENT (DNO INTEGER, LOCATION VARCHAR(20))")
    load_rows(
        db,
        "EMPLOYEE",
        [
            (1, "ALICE", 100, 1.5, None, 10),
            (2, "BOB", 80, None, 1, 10),
            (3, "CAROL", 90, 0.0, 1, 20),
            (4, "DAN", 85, 2.25, 2, 10),
            (5, "EVE", None, 1.0, 2, 20),
            (6, "FRED", 95, None, 3, None),
            (7, "GINA", 60, 3.5, 3, 10),
            (8, None, 60, 0.5, 3, 20),
        ],
    )
    load_rows(db, "DEPARTMENT", [(10, "DENVER"), (20, "NYC"), (30, None)])
    db.execute("CREATE UNIQUE INDEX E_ENO ON EMPLOYEE (ENO)")
    db.execute("CREATE INDEX E_MGR ON EMPLOYEE (MANAGER)")
    db.execute("CREATE INDEX E_SAL ON EMPLOYEE (SALARY)")
    db.execute("CREATE INDEX D_DNO ON DEPARTMENT (DNO)")
    db.execute("UPDATE STATISTICS")
    return db


@pytest.fixture(scope="module")
def company_pair() -> dict[str, Database]:
    """Physically identical databases, one per execution mode."""
    return {mode: _company(mode) for mode in MODES}


@pytest.fixture(scope="module")
def empdept_pair() -> dict[str, Database]:
    return {
        mode: build_empdept(employees=300, departments=12, seed=3)
        for mode in MODES
    }


def _run(db: Database, sql: str):
    """Execute and return (rows, counter delta, evaluation counts)."""
    before = db.storage.counters.snapshot()
    result = db.execute(sql)
    delta = before.delta(db.storage.counters)
    return result.rows, delta


#: Every expression kind the compiler handles, including 3VL over NULLs.
QUERY_CORPUS = [
    # arithmetic, typed comparisons, projection expressions
    "SELECT ENO, SALARY * 2 + 1 FROM EMPLOYEE WHERE SALARY > 70",
    "SELECT ENO, BONUS / 2 FROM EMPLOYEE WHERE BONUS >= 1.0",
    "SELECT ENO FROM EMPLOYEE WHERE -SALARY < -80",
    "SELECT ENO FROM EMPLOYEE WHERE SALARY + DNO <> 95",
    # string comparison, LIKE
    "SELECT NAME FROM EMPLOYEE WHERE NAME >= 'C'",
    "SELECT NAME FROM EMPLOYEE WHERE NAME LIKE '%A%'",
    "SELECT NAME FROM EMPLOYEE WHERE NAME LIKE '_A%'",
    # BETWEEN / IN with NULLs in play
    "SELECT ENO FROM EMPLOYEE WHERE SALARY BETWEEN 60 AND 90",
    "SELECT ENO FROM EMPLOYEE WHERE DNO IN (10, 30)",
    "SELECT ENO FROM EMPLOYEE WHERE SALARY IN (60, 95, 100)",
    "SELECT ENO FROM EMPLOYEE WHERE SALARY NOT IN (60, 95)",
    # IS NULL and three-valued AND/OR/NOT
    "SELECT ENO FROM EMPLOYEE WHERE MANAGER IS NULL",
    "SELECT ENO FROM EMPLOYEE WHERE BONUS IS NOT NULL AND DNO IS NOT NULL",
    "SELECT ENO FROM EMPLOYEE WHERE NOT (SALARY > 80 OR BONUS > 1.0)",
    "SELECT ENO FROM EMPLOYEE WHERE SALARY > 80 OR BONUS IS NULL",
    "SELECT ENO FROM EMPLOYEE WHERE (DNO = 10 AND SALARY > 70) OR MANAGER = 3",
    # index-assisted access paths (sargs compiled into matchers)
    "SELECT NAME FROM EMPLOYEE WHERE ENO = 4",
    "SELECT NAME FROM EMPLOYEE WHERE MANAGER = 2 AND SALARY > 70",
    "SELECT NAME FROM EMPLOYEE WHERE SALARY BETWEEN 80 AND 95 AND DNO = 10",
    # joins (nested loop and sort/merge both reachable)
    "SELECT E.NAME, D.LOCATION FROM EMPLOYEE E, DEPARTMENT D "
    "WHERE E.DNO = D.DNO AND E.SALARY >= 80",
    "SELECT E.NAME, D.LOCATION FROM EMPLOYEE E, DEPARTMENT D "
    "WHERE E.DNO = D.DNO ORDER BY D.LOCATION, E.NAME",
    # aggregation, HAVING, DISTINCT, ORDER BY
    "SELECT DNO, COUNT(*), AVG(SALARY) FROM EMPLOYEE GROUP BY DNO",
    "SELECT DNO, MAX(SALARY), MIN(BONUS) FROM EMPLOYEE "
    "GROUP BY DNO HAVING COUNT(*) > 1",
    "SELECT DISTINCT DNO FROM EMPLOYEE",
    "SELECT NAME, SALARY FROM EMPLOYEE WHERE SALARY IS NOT NULL "
    "ORDER BY SALARY DESC, NAME",
    "SELECT COUNT(*) FROM EMPLOYEE WHERE BONUS IS NULL",
    # subqueries: scalar, IN, correlated
    "SELECT NAME FROM EMPLOYEE "
    "WHERE SALARY > (SELECT AVG(SALARY) FROM EMPLOYEE)",
    "SELECT NAME FROM EMPLOYEE WHERE DNO IN "
    "(SELECT DNO FROM DEPARTMENT WHERE LOCATION = 'DENVER')",
    "SELECT E.NAME FROM EMPLOYEE E WHERE E.SALARY > "
    "(SELECT AVG(SALARY) FROM EMPLOYEE WHERE DNO = E.DNO)",
    "SELECT NAME FROM EMPLOYEE WHERE MANAGER NOT IN "
    "(SELECT ENO FROM EMPLOYEE WHERE DNO = 20)",
]


@pytest.mark.parametrize("sql", QUERY_CORPUS)
def test_modes_agree_on_corpus(company_pair, sql):
    rows_by_mode = {}
    deltas = {}
    for mode, db in company_pair.items():
        rows, delta = _run(db, sql)
        rows_by_mode[mode] = rows
        deltas[mode] = delta
    if "ORDER BY" in sql:
        assert rows_by_mode["fused"] == rows_by_mode["interp"]
    else:
        assert sorted(map(repr, rows_by_mode["fused"])) == sorted(
            map(repr, rows_by_mode["interp"])
        )
    assert deltas["fused"] == deltas["interp"]


def test_fig1_query_agrees_with_counters(empdept_pair):
    rows = {}
    deltas = {}
    for mode, db in empdept_pair.items():
        db.storage.cold_cache()
        rows[mode], deltas[mode] = _run(db, FIG1_QUERY)
    assert sorted(rows["fused"]) == sorted(rows["interp"])
    assert deltas["fused"] == deltas["interp"]


def test_correlated_evaluation_counts_identical(company_pair):
    """The per-referenced-tuple subquery cadence must not change."""
    sql = (
        "SELECT E.NAME FROM EMPLOYEE E WHERE E.SALARY > "
        "(SELECT AVG(SALARY) FROM EMPLOYEE WHERE DNO = E.DNO)"
    )
    counts = {}
    for mode, db in company_pair.items():
        executor = db.executor()
        from repro.sql import parse_statement

        executor.execute(db.plan_query(parse_statement(sql)))
        counts[mode] = dict(executor.last_runtime.evaluation_counts.items())
    assert list(counts["fused"].values()) == list(counts["interp"].values())


def test_division_by_zero_raises_in_both_modes(company_pair):
    for db in company_pair.values():
        with pytest.raises(ExecutionError, match="division by zero"):
            db.execute("SELECT SALARY / (ENO - ENO) FROM EMPLOYEE")


def test_constant_folding_does_not_hoist_errors(company_pair):
    """``1/0`` behind a false guard must not raise at compile time."""
    for db in company_pair.values():
        rows = db.execute(
            "SELECT ENO FROM EMPLOYEE WHERE ENO < 0 AND 1 / 0 > 1"
        ).rows
        assert rows == []


# ---------------------------------------------------------------------------
# hypothesis sweep: random predicates over NULL-laden data
# ---------------------------------------------------------------------------

_NUM_TERMS = ("A", "B", "A + B", "A - B", "B * 2", "3", "7", "-2")
_CMP_OPS = ("=", "<>", "<", "<=", ">", ">=")


def _comparisons() -> st.SearchStrategy[str]:
    return st.builds(
        lambda left, op, right: f"{left} {op} {right}",
        st.sampled_from(_NUM_TERMS),
        st.sampled_from(_CMP_OPS),
        st.sampled_from(_NUM_TERMS),
    )


def _atoms() -> st.SearchStrategy[str]:
    return st.one_of(
        _comparisons(),
        st.builds(
            lambda col, lo, hi: f"{col} BETWEEN {lo} AND {hi}",
            st.sampled_from(("A", "B")),
            st.integers(-3, 5),
            st.integers(-3, 12),
        ),
        st.builds(
            lambda col, values: f"{col} IN ({', '.join(map(str, values))})",
            st.sampled_from(("A", "B")),
            st.lists(st.integers(-2, 9), min_size=1, max_size=4),
        ),
        st.builds(
            lambda col, negate: f"{col} IS {'NOT ' if negate else ''}NULL",
            st.sampled_from(("A", "B", "S")),
            st.booleans(),
        ),
        st.builds(
            lambda pattern: f"S LIKE '{pattern}'",
            st.sampled_from(("x%", "%y", "_x%", "%", "xy")),
        ),
    )


def _predicates() -> st.SearchStrategy[str]:
    return st.recursive(
        _atoms(),
        lambda children: st.one_of(
            st.builds(lambda p: f"NOT ({p})", children),
            st.builds(
                lambda l, op, r: f"({l}) {op} ({r})",
                children,
                st.sampled_from(("AND", "OR")),
                children,
            ),
        ),
        max_leaves=4,
    )


@pytest.fixture(scope="module")
def sweep_pair() -> dict[str, Database]:
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
def test_random_predicates_agree(sweep_pair, predicate):
    sql = f"SELECT A, B, S FROM T WHERE {predicate}"
    rows = {}
    deltas = {}
    for mode, db in sweep_pair.items():
        rows[mode], deltas[mode] = _run(db, sql)
    assert sorted(map(repr, rows["fused"])) == sorted(
        map(repr, rows["interp"])
    )
    assert deltas["fused"] == deltas["interp"]
