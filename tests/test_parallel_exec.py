"""Parallel execution ≡ fused ≡ interpreter, at every worker count.

The parallel engine is the fused engine plus one hash exchange
(``engine/parallel.py``): a nested-loop join whose inner is a segment
scan with an equality probe SARG hashes the inner once per statement and
runs its probe chunks on a worker pool.  Parallelism must be invisible:
these tests run the same queries through ``exec_mode="parallel"`` at 1,
2, and 4 workers against the fused and interpreted engines over
physically identical databases and require *exactly ordered* identical
rows, identical cost counters (page fetches, RSI calls, *and* buffer
hits — the driving thread replays the serial LRU trace), and working
DML.  A hypothesis predicate sweep and a fault-injection matrix ride on
top, plus the shape of the mode (only the exchange submits pool work),
the pool's lifecycle, and the mode/worker plumbing: unknown
``REPRO_EXEC`` values and bad worker counts must fail loudly.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest
from hypothesis import given, settings

from repro import Database
from repro.engine.executor import (
    VALID_EXEC_MODES,
    resolve_exec_settings,
)
from repro.engine.external_sort import ExternalSorter
from repro.engine.parallel import partition_ranges
from repro.engine.scheduler import (
    SerialBackend,
    ThreadBackend,
    get_backend,
    shutdown_backends,
)
from repro.optimizer.plan import HashJoinNode, walk_plan
from repro.workloads import build_empdept
from repro.workloads.empdept import load_rows

from tests.test_compiled_eval import (
    QUERY_CORPUS,
    _company,
    _predicates,
    _run,
)
from tests.test_faults import (
    MUTATIONS,
    SETUP,
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


#: A nested-loop join whose segment-scan inner DEPT is probed on DNO.
STAR_JOIN = (
    "SELECT NAME, DNAME FROM EMP, DEPT "
    "WHERE EMP.DNO = DEPT.DNO AND SAL > 300"
)


def test_parallel_star_join_uses_the_hash_exchange(empdept_matrix):
    """A segment-scan inner with an equality probe goes through the hash
    exchange; the counters still replay the serial nested-loop trace."""
    sql = STAR_JOIN
    rows = {}
    deltas = {}
    for key, db in empdept_matrix.items():
        rows[key], deltas[key] = _cold_run(db, sql)
    assert rows[4] == rows["fused"]
    assert deltas[4] == deltas["fused"]
    assert rows[4], "the star probe query must return rows to mean anything"


# ---------------------------------------------------------------------------
# the shape of the mode: only the nested-loop exchange submits pool work
# ---------------------------------------------------------------------------


def _count_submissions(monkeypatch) -> list[int]:
    """Record the task count of every ``ThreadBackend.imap`` call."""
    submitted: list[int] = []
    imap = ThreadBackend.imap

    def counting(self, tasks):
        tasks = list(tasks)
        submitted.append(len(tasks))
        return imap(self, tasks)

    monkeypatch.setattr(ThreadBackend, "imap", counting)
    return submitted


#: Statements the parallel engine runs exactly as fused: a segment scan,
#: an ungrouped aggregate, a GROUP BY, and an ORDER BY that spills runs.
SERIAL_SHAPES = (
    "SELECT A, B FROM T WHERE B > 300",
    "SELECT COUNT(*), SUM(B) FROM T WHERE A < 5",
    "SELECT A, COUNT(*) FROM T GROUP BY A",
    "SELECT A, B FROM T ORDER BY B DESC, A",
)


def test_only_the_nested_loop_exchange_submits_pool_work(
    monkeypatch, empdept_matrix
):
    from repro.analysis.check import hashjoin_corpus

    db = Database(exec_mode="parallel", workers=2, buffer_pages=8)
    db.execute("CREATE TABLE T (A INTEGER, B INTEGER)")
    rng = random.Random(5)
    load_rows(
        db, "T", [(rng.randrange(40), rng.randrange(1000)) for __ in range(4000)]
    )
    db.execute("UPDATE STATISTICS")
    sort_runs: list[int] = []
    write_run = ExternalSorter._write_run

    def counting_write_run(self, workspace):
        sort_runs.append(len(workspace))
        return write_run(self, workspace)

    monkeypatch.setattr(ExternalSorter, "_write_run", counting_write_run)
    submitted = _count_submissions(monkeypatch)
    for sql in SERIAL_SHAPES:
        assert db.execute(sql).rows, sql
        assert submitted == [], sql
    assert len(sort_runs) > 1, "the ORDER BY must spill more than one run"

    hash_db = hashjoin_corpus()[0][0]
    hash_db.exec_mode = "parallel"
    hash_db.workers = 2
    sql = "SELECT T1.A, T2.J1 FROM T1, T2 WHERE T1.J1 = T2.J1 AND T1.A < 40"
    assert any(
        isinstance(node, HashJoinNode)
        for node in walk_plan(hash_db.plan(sql).root)
    )
    assert hash_db.execute(sql).rows
    assert submitted == []

    assert empdept_matrix[2].execute(STAR_JOIN).rows
    assert sum(submitted) > 0, "the exchange must run its probes on the pool"
    db.close()
    hash_db.close()


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
    """UPDATE/DELETE target rows are fully materialized before any page
    mutates."""
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

#: The fault workload's tables plus an exchange-eligible join: inner O is
#: a plain segment scan probed on ``O.K = I.K``.
EXCHANGE_SETUP = SETUP + [
    "CREATE TABLE O (K INTEGER, V INTEGER)",
    "CREATE TABLE I (K INTEGER, W VARCHAR(8))",
    "INSERT INTO O VALUES "
    + ", ".join(f"({i % 50}, {1000 + i})" for i in range(600)),
    "INSERT INTO I VALUES " + ", ".join(f"({i}, 'w{i}')" for i in range(40)),
    "UPDATE STATISTICS",
]

#: The fault workload, led by DML that reads through the exchange: every
#: fault point but ``commit.lock`` (taken before the statement reads) fires
#: after the pool has run the probes for a write.
EXCHANGE_MUTATIONS = [
    "INSERT INTO T SELECT O.V, I.W FROM O, I WHERE O.K = I.K",
    *MUTATIONS,
]

#: Exchange DML run after the fault, on the rolled-back or recovered store.
EXCHANGE_AFTER = "INSERT INTO T SELECT O.V + 1000, I.W FROM O, I WHERE O.K = I.K"

#: Every registered fault point, hit once, alternating error/crash so
#: both recovery paths run under the parallel engine.
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
    db = build_db(tmp_path / "db.pages", EXCHANGE_SETUP)
    submitted = _count_submissions(monkeypatch)
    plan = FaultPlan(point, hit=1, action=action)
    mirror, error, failed_at, fired = run_workload_under_fault(
        db, plan, EXCHANGE_MUTATIONS
    )
    get_injector().disarm()

    assert fired, f"{plan!r} never fired under parallel execution"
    assert error is not None

    if action == "error":
        assert not isinstance(error, SimulatedCrash)
        assert logical_dump(db) == mirror
        assert verify_storage(db) == []
        assert db.execute(EXCHANGE_AFTER).affected_rows == 480
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
        assert survivor.execute(EXCHANGE_AFTER).affected_rows == 480
        assert verify_storage(survivor) == []
        survivor.close()
    assert sum(submitted) > 0, "the DML must read through the exchange"


# ---------------------------------------------------------------------------
# the worker pool: close() reclaims workers, atexit-safe registry
# ---------------------------------------------------------------------------


def _worker_threads() -> list[threading.Thread]:
    return [
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("repro-worker")
    ]


def _exchange_db() -> Database:
    """A parallel database whose join ``O ⋈ I`` runs the exchange: the
    outer O spans many pages (one probe submission per outer batch) and
    the segment-scan inner I is probed on ``I.K = O.K``."""
    db = Database(exec_mode="parallel", workers=2, buffer_pages=8)
    db.execute("CREATE TABLE O (K INTEGER, V INTEGER)")
    db.execute("CREATE TABLE I (K INTEGER, W INTEGER)")
    load_rows(db, "O", [(i % 50, i) for i in range(3000)])
    load_rows(db, "I", [(i, i * 2) for i in range(40)])
    db.execute("UPDATE STATISTICS")
    return db


def test_close_leaves_no_worker_threads_alive():
    shutdown_backends()
    db = _exchange_db()
    sql = "SELECT COUNT(*) FROM O, I WHERE O.K = I.K AND O.V >= 10"
    assert db.execute(sql).scalar() == 2390
    assert _worker_threads(), "the parallel statement must have used the pool"
    db.close()
    assert _worker_threads() == []


def test_closing_another_database_spares_a_running_statement():
    """The exchange submits pool tasks per outer batch, so it needs its
    pool after the first row; closing a database that holds no pool must
    not shut it down under the statement."""
    shutdown_backends()
    db = _exchange_db()
    rows = db.executor().execute_rows(
        db.plan("SELECT O.V, I.W FROM O, I WHERE O.K = I.K")
    )
    next(rows)
    Database().close()
    assert 1 + sum(1 for __ in rows) == 2400
    db.close()
    assert _worker_threads() == []


def test_pools_recreate_after_close():
    """Closing one database must not wedge the next one's statements."""
    first = Database(exec_mode="parallel", workers=2)
    first.execute("CREATE TABLE T (A INTEGER)")
    first.execute("INSERT INTO T VALUES (1)")
    first.execute("UPDATE STATISTICS")
    first.execute("SELECT A FROM T")
    first.close()
    second = Database(exec_mode="parallel", workers=2)
    second.execute("CREATE TABLE T (A INTEGER)")
    for i in range(30):
        second.execute(f"INSERT INTO T VALUES ({i})")
    second.execute("UPDATE STATISTICS")
    assert second.execute("SELECT COUNT(*) FROM T").scalar() == 30
    second.close()


def test_racing_statements_share_one_pool_per_worker_count():
    """Client threads reaching the registry at once all get the same
    pool; a lost update would leave an orphan pool no shutdown reaches."""
    shutdown_backends()
    clients = 8
    barrier = threading.Barrier(clients)
    pools = []

    def fetch_pool():
        barrier.wait(timeout=10)
        pools.append(get_backend(3))

    threads = [threading.Thread(target=fetch_pool) for __ in range(clients)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(pools) == clients
    assert all(pool is pools[0] for pool in pools)
    shutdown_backends()


def test_backend_registry_reuses_pools():
    shutdown_backends()
    assert get_backend(2) is get_backend(2)
    assert get_backend(2) is not get_backend(4)
    shutdown_backends()


def test_serial_backend_for_one_worker():
    assert isinstance(get_backend(1), SerialBackend)
    assert isinstance(get_backend(0), SerialBackend)


@pytest.mark.parametrize("count", (0, 1, 5, 17, 64))
@pytest.mark.parametrize("parts", (1, 3, 8))
def test_partition_ranges_cover_every_index_once(count, parts):
    """Probe chunks: contiguous, in order, every outer row exactly once,
    at most ``parts`` of them and balanced to within one row."""
    ranges = partition_ranges(count, parts)
    covered = [index for lo, hi in ranges for index in range(lo, hi)]
    assert covered == list(range(count))
    assert len(ranges) <= parts
    sizes = [hi - lo for lo, hi in ranges]
    assert max(sizes) - min(sizes) <= 1
