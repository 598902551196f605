"""The concurrent serving layer: sessions, group commit, stress.

Covers the serving contract end to end: snapshot-isolated reads pinned
at statement start, writer serialization through the commit lock with a
typed busy timeout, group-commit batching with per-participant outcomes
(all-or-nothing on commit failure, lone rollback on a statement error),
the Database context-manager/close lifecycle, cost-counter bit-identity
between the one statement pipeline (from either handle) and a bare
executor over the live engine in every exec mode, and the stress harness
at the acceptance scale of 100 concurrent clients plus the serving-layer
fault legs.
"""

import threading
import time

import pytest

from repro.analysis.storage_check import logical_dump, verify_storage
from repro.database import Database
from repro.errors import (
    CommitAbortedError,
    DatabaseBusyError,
    FaultInjectedError,
    IntegrityError,
    SimulatedCrash,
    StorageError,
)
from repro.rss.disk import DiskManager
from repro.rss.faults import FaultPlan, get_injector
from repro.serving.stress import run_fault_smoke, run_stress


@pytest.fixture(autouse=True)
def _disarm():
    yield
    get_injector().disarm()


def make_db(tmp_path=None, **kwargs):
    path = str(tmp_path / "serving.pages") if tmp_path is not None else None
    db = Database(path=path, **kwargs)
    db.execute("CREATE TABLE T (A INTEGER, B INTEGER)")
    db.execute("INSERT INTO T VALUES (1, 10), (2, 20), (3, 30)")
    return db


def queue_writers(db, statements):
    """Hold the commit lock, enqueue one writer thread per statement,
    release, and return each thread's outcome (result or exception)."""
    coordinator = db._coordinator
    assert coordinator._commit_lock.try_acquire()
    outcomes = [None] * len(statements)

    def submit(i, sql):
        session = db.session(f"w{i}")
        try:
            outcomes[i] = session.execute(sql)
        except Exception as error:  # noqa: BLE001 — outcome under test
            outcomes[i] = error
        finally:
            session.close()

    threads = [
        threading.Thread(target=submit, args=(i, sql), daemon=True)
        for i, sql in enumerate(statements)
    ]
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            with coordinator._queue_lock:
                if len(coordinator._queue) == len(statements):
                    break
            time.sleep(0.002)
        else:
            raise AssertionError("writers never queued")
    finally:
        coordinator._commit_lock.release()
    for thread in threads:
        thread.join(timeout=30.0)
    assert not any(thread.is_alive() for thread in threads)
    return outcomes


# -- snapshot-isolated sessions ---------------------------------------------


def test_session_and_database_reads_are_the_same_pinned_read():
    db = make_db()
    with db.session() as session:
        result = session.execute("SELECT A, B FROM T WHERE A >= 2")
        assert sorted(result.rows) == [(2, 20), (3, 30)]
        direct = db.execute("SELECT A, B FROM T WHERE A >= 2")
        assert direct.rows == result.rows
        assert direct.snapshot_version == result.snapshot_version is not None
    db.close()


def test_select_reads_the_committed_version_beside_an_open_batch():
    """A SELECT from the database handle is pinned like a session's: it
    never sees an open batch's rows, aborted or not."""
    db = make_db()
    table = db.catalog.table("T")
    db.storage.begin_batch()
    with db.storage.statement():
        db.storage.insert(table, [], (4, 40))
    during = db.execute("SELECT COUNT(*) FROM T")
    assert during.scalar() == 3
    assert during.snapshot_version is not None
    db.storage.abort_batch()
    after = db.execute("SELECT COUNT(*) FROM T")
    assert after.scalar() == 3
    assert after.snapshot_version == during.snapshot_version
    db.close()


def test_pinned_snapshot_ignores_later_commits():
    from repro.engine.executor import Executor
    from repro.serving.session import SnapshotStorage
    from repro.sql import parse_statement

    db = make_db()
    version, meta = db.storage.pin_snapshot()
    try:
        db.execute("INSERT INTO T VALUES (4, 40)")
        db.execute("UPDATE T SET B = 99 WHERE A = 1")
        planned = db.plan_query(parse_statement("SELECT A, B FROM T"))
        frozen = Executor(
            SnapshotStorage(db.storage, version, meta),
            db.catalog,
            db.subquery_cache_mode,
        ).execute(planned)
        # the pinned view is the state at pin time ...
        assert sorted(frozen.rows) == [(1, 10), (2, 20), (3, 30)]
    finally:
        db.storage.unpin(version)
    # ... while a fresh session statement pins the new version
    with db.session() as session:
        now = session.execute("SELECT A, B FROM T")
        assert sorted(now.rows) == [(1, 99), (2, 20), (3, 30), (4, 40)]
        assert now.snapshot_version > version
    db.close()


def test_session_write_returns_commit_version_and_is_readable():
    db = make_db()
    with db.session() as session:
        write = session.execute("INSERT INTO T VALUES (7, 70)")
        assert write.commit_version is not None
        read = session.execute("SELECT B FROM T WHERE A = 7")
        assert read.rows == [(70,)]
        assert read.snapshot_version >= write.commit_version
    db.close()


# -- lifecycle ---------------------------------------------------------------


def test_database_context_manager_and_idempotent_close(tmp_path):
    with Database(path=str(tmp_path / "ctx.pages")) as db:
        db.execute("CREATE TABLE C (A INTEGER)")
        session = db.session("held")
    # close() ran on __exit__: the db and its sessions refuse new work
    with pytest.raises(StorageError):
        session.execute("SELECT A FROM C")
    with pytest.raises(StorageError):
        db.session("late")
    db.close()  # idempotent
    session.close()  # idempotent
    with Database(path=str(tmp_path / "ctx.pages")) as again:
        assert again.execute("SELECT A FROM C").rows == []


def test_closed_database_refuses_reads_and_writes(tmp_path):
    db = Database(path=str(tmp_path / "closed.pages"))
    db.execute("CREATE TABLE C (A INTEGER)")
    session = db.session("held")
    db.close()
    for statement in ("SELECT A FROM C", "INSERT INTO C VALUES (1)"):
        with pytest.raises(StorageError, match="database is closed"):
            db.execute(statement)
        with pytest.raises(StorageError, match="database is closed"):
            session.execute(statement)
    with pytest.raises(StorageError, match="database is closed"):
        db.update_statistics()


# -- commit lock and busy timeout -------------------------------------------


def test_busy_timeout_raises_typed_error():
    db = make_db(commit_timeout=0.05)
    assert db._coordinator._commit_lock.try_acquire()
    try:
        with pytest.raises(DatabaseBusyError) as caught:
            db.execute("INSERT INTO T VALUES (9, 90)")
    finally:
        db._coordinator._commit_lock.release()
    assert isinstance(caught.value, StorageError)
    assert caught.value.timeout == pytest.approx(0.05)
    # the statement never ran and a retry succeeds
    assert db.execute("SELECT A FROM T WHERE A = 9").rows == []
    assert db.execute("INSERT INTO T VALUES (9, 90)").affected_rows == 1
    db.close()


# -- group commit ------------------------------------------------------------


def test_queued_writers_share_one_flip():
    db = make_db()
    coordinator = db._coordinator
    before = (coordinator.batches_committed, coordinator.statements_committed)
    outcomes = queue_writers(
        db,
        [f"INSERT INTO T VALUES ({100 + i}, {i})" for i in range(3)],
    )
    assert all(result.commit_version is not None for result in outcomes)
    assert coordinator.batches_committed == before[0] + 1
    assert coordinator.statements_committed == before[1] + 3
    assert coordinator.largest_batch >= 3
    # one batch -> one page-table flip -> one shared commit version
    assert len({result.commit_version for result in outcomes}) == 1
    assert db.execute("SELECT A FROM T WHERE A >= 100").affected_rows == 3
    db.close()


def test_failed_statement_rolls_back_alone():
    db = make_db()
    db.execute("CREATE UNIQUE INDEX TA ON T (A)")
    outcomes = queue_writers(
        db,
        [
            "INSERT INTO T VALUES (300, 1)",
            "INSERT INTO T VALUES (1, 111)",  # duplicate key
            "INSERT INTO T VALUES (301, 2)",
        ],
    )
    assert outcomes[0].commit_version is not None
    assert isinstance(outcomes[1], IntegrityError)
    assert outcomes[2].commit_version is not None
    rows = db.execute("SELECT A, B FROM T WHERE A >= 300 OR A = 1").rows
    assert sorted(rows) == [(1, 10), (300, 1), (301, 2)]
    db.close()


def test_batched_commit_failure_aborts_every_participant(tmp_path):
    db = make_db(tmp_path)
    before = logical_dump(db)
    coordinator = db._coordinator
    assert coordinator._commit_lock.try_acquire()
    get_injector().arm(FaultPlan("group-commit.before-flip", 1, "error"))
    try:
        outcomes = [None] * 3

        def submit(i):
            try:
                outcomes[i] = db.execute(f"INSERT INTO T VALUES ({400 + i}, 0)")
            except Exception as error:  # noqa: BLE001
                outcomes[i] = error

        threads = [
            threading.Thread(target=submit, args=(i,), daemon=True)
            for i in range(3)
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            with coordinator._queue_lock:
                if len(coordinator._queue) == 3:
                    break
            time.sleep(0.002)
    finally:
        coordinator._commit_lock.release()
    for thread in threads:
        thread.join(timeout=30.0)
    assert all(isinstance(outcome, CommitAbortedError) for outcome in outcomes)
    assert all(outcome.participants == 3 for outcome in outcomes)
    assert all(
        isinstance(outcome.__cause__, FaultInjectedError)
        for outcome in outcomes
    )
    # all-or-nothing: nothing of the batch landed, and the engine is clean
    assert logical_dump(db) == before
    assert verify_storage(db) == []
    assert db.execute("INSERT INTO T VALUES (400, 0)").affected_rows == 1
    db.close()


def test_solo_commit_failure_raises_the_original_error():
    db = make_db()
    get_injector().arm(FaultPlan("group-commit.before-flip", 1, "error"))
    with pytest.raises(FaultInjectedError):
        db.execute("INSERT INTO T VALUES (500, 0)")
    assert db.execute("SELECT A FROM T WHERE A = 500").rows == []
    db.close()


# -- new fault points through sessions ---------------------------------------


def test_commit_lock_fault_point_error_and_crash(tmp_path):
    db = Database(path=str(tmp_path / "fp.pages"))
    db.execute("CREATE TABLE F (A INTEGER)")
    get_injector().arm(FaultPlan("commit.lock", 1, "error"))
    with pytest.raises(FaultInjectedError):
        db.execute("INSERT INTO F VALUES (1)")
    get_injector().disarm()
    db.execute("INSERT INTO F VALUES (1)")
    get_injector().arm(FaultPlan("commit.lock", 1, "crash"))
    with db.session() as session:
        with pytest.raises(SimulatedCrash) as caught:
            session.execute("INSERT INTO F VALUES (2)")
    get_injector().disarm()
    restored = DiskManager.restore(
        caught.value.snapshot, tmp_path / "fp-recovered.pages"
    )
    with Database(path=str(restored)) as survivor:
        assert verify_storage(survivor) == []
        assert survivor.execute("SELECT A FROM F").rows == [(1,)]
    db.close()


# -- counter bit-identity ----------------------------------------------------


@pytest.mark.parametrize("handle", ["database", "session"])
@pytest.mark.parametrize("mode", ["interp", "fused", "parallel"])
def test_pipeline_counters_bit_identical_to_engine(mode, handle):
    """The pinned pipeline costs exactly what a bare executor over the
    live engine costs (the tests' reference read path)."""
    from repro.sql import parse_statement

    db = Database(exec_mode=mode)
    db.execute("CREATE TABLE E (A INTEGER, B INTEGER)")
    db.execute("CREATE INDEX EA ON E (A)")
    values = ", ".join(f"({i % 17}, {i})" for i in range(120))
    db.execute(f"INSERT INTO E VALUES {values}")
    db.execute("UPDATE STATISTICS")
    query = "SELECT A, B FROM E WHERE A >= 5 AND A <= 11 ORDER BY B"
    db.cold_cache()
    reference = db.executor().execute(db.plan_query(parse_statement(query)))
    counters = (
        db.counters.page_fetches,
        db.counters.rsi_calls,
        db.counters.buffer_hits,
    )
    db.cold_cache()
    client = db if handle == "database" else db.session()
    served = client.execute(query)
    assert served.rows == reference.rows
    assert served.snapshot_version is not None
    assert (
        db.counters.page_fetches,
        db.counters.rsi_calls,
        db.counters.buffer_hits,
    ) == counters
    db.close()


# -- the stress harness at acceptance scale ----------------------------------


def test_stress_hundred_clients(tmp_path):
    report = run_stress(
        str(tmp_path / "stress.pages"), clients=100, statements=8, seed=11
    )
    assert report.violations == []
    assert report.outcomes == report.statements
    assert report.clients == 100


def test_stress_fault_smoke_legs(tmp_path):
    def make_path(label):
        leg = tmp_path / label.replace(":", "_")
        leg.mkdir()
        return str(leg / "stress.pages")

    for label, report in run_fault_smoke(
        make_path, clients=6, statements=12, seed=5, hit=3
    ):
        assert report.violations == [], (label, report.violations)
