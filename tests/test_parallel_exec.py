"""Parallel execution ≡ fused ≡ interpreter, at every worker count.

The parallel engine (``engine/parallel.py``) partitions segment scans into
page ranges, runs the fused per-batch drivers on a worker pool, and
repartitions nested-loop probes through a hash exchange.  Parallelism must
be invisible: these tests run the same queries through
``exec_mode="parallel"`` at 1, 2, and 4 workers against the fused and
interpreted engines over physically identical databases and require
*exactly ordered* identical rows, identical cost counters (page fetches,
RSI calls, *and* buffer hits — the driving thread replays the serial LRU
trace), and working DML.  A hypothesis predicate sweep and a 12-point
fault-injection matrix ride on top, plus the mode/worker plumbing:
unknown ``REPRO_EXEC`` values and bad worker counts must fail loudly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro import Database
from repro.engine.executor import (
    VALID_EXEC_MODES,
    resolve_exec_settings,
)
from repro.workloads import build_empdept

from tests.test_compiled_eval import (
    QUERY_CORPUS,
    _company,
    _predicates,
    _run,
)
from tests.test_faults import (
    build_db,
    get_injector,
    registered_points,
    run_workload_under_fault,
)
from tests.test_fused_exec import ORDERED_QUERIES

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def company_matrix() -> dict[object, Database]:
    """Physically identical databases: fused, interp, parallel x workers."""
    databases: dict[object, Database] = {
        "fused": _company("fused"),
        "interp": _company("interp"),
    }
    for count in WORKER_COUNTS:
        db = _company("parallel")
        db.workers = count
        databases[count] = db
    return databases


@pytest.fixture(scope="module")
def empdept_matrix() -> dict[object, Database]:
    databases: dict[object, Database] = {
        "fused": build_empdept(employees=300, departments=12, seed=3),
        "interp": build_empdept(employees=300, departments=12, seed=3),
    }
    databases["interp"].exec_mode = "interp"
    for count in WORKER_COUNTS:
        db = build_empdept(employees=300, departments=12, seed=3)
        db.exec_mode = "parallel"
        db.workers = count
        databases[count] = db
    return databases


def _cold_run(db: Database, sql: str):
    db.storage.cold_cache()
    return _run(db, sql)


@pytest.mark.parametrize("sql", QUERY_CORPUS)
def test_parallel_agrees_exactly_on_corpus(company_matrix, sql):
    """Row-for-row, in order, at every worker count — the gather must
    reproduce the serial sequence and the serial fetch/hit trace."""
    rows = {}
    deltas = {}
    for key, db in company_matrix.items():
        rows[key], deltas[key] = _cold_run(db, sql)
    for count in WORKER_COUNTS:
        assert rows[count] == rows["fused"] == rows["interp"]
        assert deltas[count] == deltas["fused"] == deltas["interp"]


@pytest.mark.parametrize("sql", ORDERED_QUERIES)
def test_parallel_preserves_declared_orders(empdept_matrix, sql):
    rows = {}
    deltas = {}
    for key, db in empdept_matrix.items():
        rows[key], deltas[key] = _cold_run(db, sql)
    for count in WORKER_COUNTS:
        assert rows[count] == rows["fused"] == rows["interp"]
        assert deltas[count] == deltas["fused"] == deltas["interp"]


def test_parallel_star_join_uses_the_hash_exchange(empdept_matrix):
    """A segment-scan inner with an equality probe goes through the hash
    exchange; the counters still replay the serial nested-loop trace."""
    sql = (
        "SELECT NAME, DNAME FROM EMP, DEPT "
        "WHERE EMP.DNO = DEPT.DNO AND SAL > 300"
    )
    rows = {}
    deltas = {}
    for key, db in empdept_matrix.items():
        rows[key], deltas[key] = _cold_run(db, sql)
    assert rows[4] == rows["fused"]
    assert deltas[4] == deltas["fused"]
    assert rows[4], "the star probe query must return rows to mean anything"


# ---------------------------------------------------------------------------
# mode and worker plumbing: loud failures, not silent defaults
# ---------------------------------------------------------------------------


def test_unknown_exec_mode_lists_valid_modes(monkeypatch):
    monkeypatch.delenv("REPRO_EXEC", raising=False)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    with pytest.raises(ValueError) as caught:
        resolve_exec_settings("vectorized")
    message = str(caught.value)
    assert "vectorized" in message
    for mode in VALID_EXEC_MODES:
        assert mode in message


def test_unknown_exec_mode_from_environment(monkeypatch):
    monkeypatch.setenv("REPRO_EXEC", "turbo")
    with pytest.raises(ValueError, match="valid modes"):
        Database().executor()


def test_parallel_worker_suffix_and_env(monkeypatch):
    monkeypatch.delenv("REPRO_EXEC", raising=False)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert resolve_exec_settings("parallel:3") == ("parallel", 3)
    monkeypatch.setenv("REPRO_WORKERS", "5")
    assert resolve_exec_settings("parallel") == ("parallel", 5)
    # an explicit argument beats the environment
    assert resolve_exec_settings("parallel", workers=2) == ("parallel", 2)
    # non-parallel modes run single-worker by default
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert resolve_exec_settings("fused") == ("fused", 1)


@pytest.mark.parametrize(
    "mode,env",
    [
        ("parallel:0", None),
        ("parallel:x", None),
        ("fused:2", None),
        ("parallel", "0"),
        ("parallel", "many"),
    ],
)
def test_bad_worker_counts_fail_loudly(monkeypatch, mode, env):
    if env is None:
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
    else:
        monkeypatch.setenv("REPRO_WORKERS", env)
    with pytest.raises(ValueError):
        resolve_exec_settings(mode)


def test_database_rejects_nonpositive_workers():
    with pytest.raises(ValueError):
        Database(exec_mode="parallel", workers=0)


@pytest.mark.parametrize("mode", ("fuzed", "parallel:0", "fused:2"))
def test_database_rejects_bad_exec_mode_at_construction(monkeypatch, mode):
    """A mode typo fails before any INSERT can commit, like ``workers``
    — not at the first SELECT."""
    monkeypatch.delenv("REPRO_EXEC", raising=False)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    with pytest.raises(ValueError):
        Database(exec_mode=mode)


def test_dml_executes_under_parallel_mode():
    """UPDATE/DELETE target rows are collected by parallel scans and fully
    materialized before any page mutates."""
    db = Database(exec_mode="parallel", workers=2)
    db.execute("CREATE TABLE T (A INTEGER, B INTEGER)")
    for i in range(20):
        db.execute(f"INSERT INTO T VALUES ({i}, {i * 10})")
    db.execute("UPDATE STATISTICS")
    db.execute("UPDATE T SET B = -1 WHERE A >= 10")
    assert db.execute("SELECT COUNT(*) FROM T WHERE B = -1").scalar() == 10
    db.execute("DELETE FROM T WHERE A < 5")
    assert db.execute("SELECT COUNT(*) FROM T").scalar() == 15


# ---------------------------------------------------------------------------
# hypothesis sweep: parallel vs fused over NULL-laden data, order-exact
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_matrix() -> dict[object, Database]:
    from repro.workloads.empdept import load_rows

    databases: dict[object, Database] = {}
    for key in ("fused", 2):
        db = Database(
            exec_mode="fused" if key == "fused" else "parallel",
            workers=None if key == "fused" else key,
        )
        db.execute("CREATE TABLE T (A INTEGER, B INTEGER, S VARCHAR(4))")
        rows = []
        for a in (None, -2, 0, 1, 3, 7):
            for b, s in ((None, "xy"), (2, None), (5, "yx"), (8, "xxxx")):
                rows.append((a, b, s))
        load_rows(db, "T", rows)
        db.execute("UPDATE STATISTICS")
        databases[key] = db
    return databases


@settings(max_examples=60, deadline=None)
@given(predicate=_predicates())
def test_random_predicates_parallel_order_exact(sweep_matrix, predicate):
    sql = f"SELECT A, B, S FROM T WHERE {predicate}"
    rows = {}
    deltas = {}
    for key, db in sweep_matrix.items():
        rows[key], deltas[key] = _run(db, sql)
    assert rows[2] == rows["fused"]
    assert deltas[2] == deltas["fused"]


# ---------------------------------------------------------------------------
# fault matrix under REPRO_EXEC=parallel: atomicity is worker-count blind
# ---------------------------------------------------------------------------

#: All 12 registered fault points, hit once, alternating error/crash so
#: both recovery paths run with parallel scans collecting the target rows.
PARALLEL_FAULT_MATRIX = [
    (point, "error" if index % 2 == 0 else "crash")
    for index, point in enumerate(sorted(registered_points()))
]


@pytest.mark.parametrize(
    "point,action",
    PARALLEL_FAULT_MATRIX,
    ids=[f"{p}:{a}" for p, a in PARALLEL_FAULT_MATRIX],
)
def test_fault_matrix_under_parallel(tmp_path, monkeypatch, point, action):
    from repro.analysis.storage_check import logical_dump, verify_storage
    from repro.errors import SimulatedCrash
    from repro.rss.disk import DiskManager
    from repro.rss.faults import FaultPlan

    monkeypatch.setenv("REPRO_EXEC", "parallel")
    monkeypatch.setenv("REPRO_WORKERS", "2")
    db = build_db(tmp_path / "db.pages")
    plan = FaultPlan(point, hit=1, action=action)
    mirror, error, failed_at, fired = run_workload_under_fault(db, plan)
    get_injector().disarm()

    assert fired, f"{plan!r} never fired under parallel execution"
    assert error is not None

    if action == "error":
        assert not isinstance(error, SimulatedCrash)
        assert logical_dump(db) == mirror
        assert verify_storage(db) == []
        db.close()
    else:
        assert isinstance(error, SimulatedCrash)
        assert error.snapshot is not None
        db.close()
        restored = DiskManager.restore(
            error.snapshot, tmp_path / "recovered.pages"
        )
        survivor = Database(path=str(restored))
        assert logical_dump(survivor) == mirror
        assert verify_storage(survivor) == []
        survivor.close()
