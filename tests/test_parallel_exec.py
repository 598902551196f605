"""The fused engine's nested-loop hash probe ≡ interpreter, and the
``"parallel"`` spelling.

A nested-loop join whose inner is a plain segment scan with an equality
probe SARG hashes the inner once per driver call and answers each outer
row from a bucket (``engine/fuse.py``).  The probe must be invisible:
these tests run the same queries through the fused and interpreted
engines over physically identical databases and require *exactly
ordered* identical rows, identical cost counters (page fetches, RSI
calls, *and* buffer hits — every probe replays the serial rescan's
fetches), and working DML, including under a buffer smaller than the
hashed inner.  A hypothesis predicate sweep and a fault-injection matrix
ride on top, plus the shape of the strategy (only an eligible nested-loop
join builds buckets, and only once it has an outer row) and the mode
plumbing: ``"parallel"`` runs the fused engine, unknown modes and bad
worker counts fail loudly, and the retired ``parallel:N`` suffix and
``REPRO_WORKERS`` variable are gone.
"""

from __future__ import annotations

import random
import threading

import pytest
from hypothesis import given, settings

from repro import Database
from repro.engine import fuse
from repro.engine.executor import VALID_EXEC_MODES, resolve_exec_mode
from repro.engine.external_sort import ExternalSorter
from repro.optimizer.plan import (
    HashJoinNode,
    IndexAccess,
    NestedLoopJoinNode,
    walk_plan,
)
from repro.rss.pagestore import PageStore
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


@pytest.fixture(scope="module")
def company_matrix() -> dict[str, Database]:
    """Physically identical databases, one per engine."""
    return {"fused": _company("fused"), "interp": _company("interp")}


@pytest.fixture(scope="module")
def empdept_matrix() -> dict[str, Database]:
    databases = {
        mode: build_empdept(employees=300, departments=12, seed=3)
        for mode in ("fused", "interp")
    }
    databases["interp"].exec_mode = "interp"
    return databases


def _cold_run(db: Database, sql: str):
    db.storage.cold_cache()
    return _run(db, sql)


def _count_bucket_builds(monkeypatch) -> list[int]:
    """Record the page count of every hash-probe bucket build."""
    built: list[int] = []
    build = fuse._build_buckets

    def counting(snapshot, *args):
        built.append(len(snapshot.page_ids))
        return build(snapshot, *args)

    monkeypatch.setattr(fuse, "_build_buckets", counting)
    return built


def _count_bucketed_rows(monkeypatch) -> list[int]:
    """Record the rows every hash-probe bucket build hashes."""
    bucketed: list[int] = []
    build = fuse._build_buckets

    def counting(*args):
        buckets = build(*args)
        bucketed.append(sum(len(bucket) for bucket in buckets.values()))
        return buckets

    monkeypatch.setattr(fuse, "_build_buckets", counting)
    return bucketed


@pytest.mark.parametrize("sql", QUERY_CORPUS)
def test_parallel_agrees_exactly_on_corpus(company_matrix, sql):
    """Row-for-row, in order, with the interpreter's fetch/hit trace."""
    rows = {}
    deltas = {}
    for key, db in company_matrix.items():
        rows[key], deltas[key] = _cold_run(db, sql)
    assert rows["fused"] == rows["interp"]
    assert deltas["fused"] == deltas["interp"]


@pytest.mark.parametrize("sql", ORDERED_QUERIES)
def test_parallel_preserves_declared_orders(empdept_matrix, sql):
    rows = {}
    deltas = {}
    for key, db in empdept_matrix.items():
        rows[key], deltas[key] = _cold_run(db, sql)
    assert rows["fused"] == rows["interp"]
    assert deltas["fused"] == deltas["interp"]


#: A nested-loop join whose segment-scan inner EMP is probed on DNO.
STAR_JOIN = (
    "SELECT NAME, DNAME FROM EMP, DEPT "
    "WHERE EMP.DNO = DEPT.DNO AND SAL > 300"
)


def _hash_probed(db: Database, sql: str) -> bool:
    """True when the plan has a nested-loop join over a segment-scan inner."""
    return any(
        isinstance(node, NestedLoopJoinNode)
        and not isinstance(node.inner.access, IndexAccess)
        for node in walk_plan(db.plan(sql).root)
    )


def test_parallel_star_join_uses_the_hash_exchange(monkeypatch, empdept_matrix):
    """A segment-scan inner with an equality probe is hashed once; the
    counters still replay the interpreter's nested-loop trace."""
    sql = STAR_JOIN
    assert _hash_probed(empdept_matrix["fused"], sql)
    built = _count_bucket_builds(monkeypatch)
    rows = {}
    deltas = {}
    for key, db in empdept_matrix.items():
        rows[key], deltas[key] = _cold_run(db, sql)
    assert rows["fused"] == rows["interp"]
    assert deltas["fused"] == deltas["interp"]
    assert rows["fused"], "the star probe query must return rows to mean anything"
    assert len(built) == 1, "the fused run hashes DEPT once; interp never"


def test_hash_probe_buckets_only_rows_the_constant_sargs_match(
    monkeypatch, empdept_matrix
):
    """The inner's constant part ``SAL > 300`` binds once per driver call:
    only the EMP rows it admits are hashed, keyed on DNO, and rows and
    counters stay the interpreter's."""
    bucketed = _count_bucketed_rows(monkeypatch)
    rows = {}
    deltas = {}
    for key, db in empdept_matrix.items():
        rows[key], deltas[key] = _cold_run(db, STAR_JOIN)
    assert rows["fused"] == rows["interp"]
    assert deltas["fused"] == deltas["interp"]
    interp = empdept_matrix["interp"]
    admitted = interp.execute(
        "SELECT COUNT(*) FROM EMP WHERE SAL > 300 AND DNO IS NOT NULL"
    ).scalar()
    assert 0 < admitted < interp.execute("SELECT COUNT(*) FROM EMP").scalar()
    assert bucketed == [admitted]


def test_hash_probe_rebinds_outer_block_sargs_per_call(monkeypatch):
    """``I.W >= P.A`` reads the enclosing block, not the join's outer row:
    each evaluation of the correlated subquery filters the inner anew
    (NULL admitting nothing), with the interpreter's rows and counters."""
    sql = (
        "SELECT P.A, (SELECT COUNT(*) FROM O, I "
        "WHERE O.K = I.K AND I.W >= P.A) FROM P"
    )
    bucketed = _count_bucketed_rows(monkeypatch)
    results = {}
    for mode in ("fused", "interp"):
        db = _probe_db()
        db.exec_mode = mode
        db.execute("CREATE TABLE P (A INTEGER)")
        load_rows(db, "P", [(0,), (30,), (70,), (100,), (None,)])
        db.execute("UPDATE STATISTICS")
        (subquery,) = db.plan(sql).subquery_plans.values()
        assert any(
            isinstance(node, NestedLoopJoinNode)
            and node.inner.alias == "I"
            and not isinstance(node.inner.access, IndexAccess)
            for node in walk_plan(subquery.root)
        )
        results[mode] = _cold_run(db, sql)
        db.close()
    assert results["fused"] == results["interp"]
    # I holds W = 0, 2, ..., 78: W >= 0, 30, 70 admit 40, 25 and 5 rows.
    assert sorted(bucketed) == [0, 0, 5, 25, 40]


def test_hash_probe_replay_counts_without_resolving(monkeypatch, empdept_matrix):
    """Through a session every read resolves pages as of its pin; the
    probe's fetch replay only counts, so each inner page is resolved once
    (by the bucket build), however many outer rows probe it."""
    fused = empdept_matrix["fused"]
    (join,) = [
        node
        for node in walk_plan(fused.plan(STAR_JOIN).root)
        if isinstance(node, NestedLoopJoinNode)
    ]
    inner_pages = fused.storage.segment(join.inner.table.segment_name).page_ids
    resolved: list[int] = []
    resolve = PageStore.resolve

    def counting(self, page_id, version):
        resolved.append(page_id)
        return resolve(self, page_id, version)

    monkeypatch.setattr(PageStore, "resolve", counting)
    rows = {}
    deltas = {}
    inner_resolves = {}
    for key, db in empdept_matrix.items():
        db.storage.cold_cache()
        resolved.clear()
        before = db.storage.counters.snapshot()
        with db.session() as session:
            rows[key] = session.execute(STAR_JOIN).rows
        deltas[key] = before.delta(db.storage.counters)
        inner_resolves[key] = sorted(p for p in resolved if p in inner_pages)
    assert rows["fused"] == rows["interp"]
    assert deltas["fused"] == deltas["interp"]
    assert len(rows["fused"]) > 1, "several outer rows must probe the inner"
    assert inner_resolves["fused"] == sorted(inner_pages)


# ---------------------------------------------------------------------------
# the shape of the strategy: only an eligible nested-loop join builds buckets
# ---------------------------------------------------------------------------

#: Statements with no nested-loop join: a segment scan, an ungrouped
#: aggregate, a GROUP BY, and an ORDER BY that spills runs.
SERIAL_SHAPES = (
    "SELECT A, B FROM T WHERE B > 300",
    "SELECT COUNT(*), SUM(B) FROM T WHERE A < 5",
    "SELECT A, COUNT(*) FROM T GROUP BY A",
    "SELECT A, B FROM T ORDER BY B DESC, A",
)


def test_only_the_nested_loop_exchange_submits_pool_work(
    monkeypatch, empdept_matrix
):
    """Bucket builds happen for an eligible nested-loop join only: never
    for scans, aggregates, sorts or the hash join operator."""
    from repro.analysis.check import hashjoin_corpus

    db = Database(buffer_pages=8)
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
    built = _count_bucket_builds(monkeypatch)
    for sql in SERIAL_SHAPES:
        assert db.execute(sql).rows, sql
        assert built == [], sql
    assert len(sort_runs) > 1, "the ORDER BY must spill more than one run"

    hash_db = hashjoin_corpus()[0][0]
    sql = "SELECT T1.A, T2.J1 FROM T1, T2 WHERE T1.J1 = T2.J1 AND T1.A < 40"
    assert any(
        isinstance(node, HashJoinNode)
        for node in walk_plan(hash_db.plan(sql).root)
    )
    assert hash_db.execute(sql).rows
    assert built == []

    assert empdept_matrix["fused"].execute(STAR_JOIN).rows
    assert len(built) == 1, "the nested-loop join must hash its inner"
    db.close()
    hash_db.close()


def test_empty_outer_decodes_no_inner_page(monkeypatch):
    """The inner is hashed on the first outer row: an outer that yields
    nothing leaves every inner page undecoded (and unfetched)."""
    from repro.rss import scan

    db = _probe_db()
    sql = "SELECT O.V, I.W FROM O, I WHERE O.K = I.K AND O.V < 0"
    assert _hash_probed(db, sql)
    built = _count_bucket_builds(monkeypatch)
    decoded: list[int] = []
    page_rows = scan.page_rows

    def counting_page_rows(page_id, *args, **kwargs):
        decoded.append(page_id)
        return page_rows(page_id, *args, **kwargs)

    monkeypatch.setattr(scan, "page_rows", counting_page_rows)
    monkeypatch.setattr(fuse, "page_rows", counting_page_rows)
    inner_pages = set(db.storage.segment("I").page_ids)
    assert db.execute(sql).rows == []
    assert built == []
    assert decoded, "the outer scan decodes its own pages"
    assert inner_pages.isdisjoint(decoded)
    assert db.execute("SELECT O.V, I.W FROM O, I WHERE O.K = I.K").rows
    assert built == [len(inner_pages)]
    db.close()


# ---------------------------------------------------------------------------
# mode and worker plumbing: loud failures, not silent defaults
# ---------------------------------------------------------------------------


def test_unknown_exec_mode_lists_valid_modes():
    with pytest.raises(ValueError) as caught:
        resolve_exec_mode("vectorized")
    message = str(caught.value)
    assert "vectorized" in message
    for mode in VALID_EXEC_MODES:
        assert mode in message


def test_parallel_worker_suffix_and_env(monkeypatch):
    """The retired ``parallel:N`` suffix is an unknown mode, and
    ``REPRO_WORKERS`` is read by nothing; ``parallel`` itself is an
    accepted spelling of the fused engine."""
    with pytest.raises(ValueError, match="unknown exec mode 'parallel:3'"):
        resolve_exec_mode("parallel:3")
    monkeypatch.setenv("REPRO_WORKERS", "0")
    db = Database(exec_mode="parallel")
    assert db.workers is None
    db.execute("CREATE TABLE T (A INTEGER)")
    db.execute("INSERT INTO T VALUES (1)")
    executor = db.executor()
    assert executor.execute(db.plan("SELECT A FROM T")).rows == [(1,)]
    assert not executor.last_runtime.interpret
    db.close()


@pytest.mark.parametrize(
    "mode,workers",
    [
        ("parallel:0", None),
        ("parallel:x", None),
        ("fused:2", None),
        ("parallel", 0),
        ("parallel", "many"),
    ],
)
def test_bad_worker_counts_fail_loudly(mode, workers):
    """A retired ``mode:N`` spelling or a worker count that is not a
    positive integer raises a ``ValueError`` naming it, never a leaked
    ``TypeError``."""
    bad = mode if workers is None else workers
    with pytest.raises(ValueError, match=repr(bad)):
        Database(exec_mode=mode, workers=workers)


def test_database_rejects_nonpositive_workers():
    with pytest.raises(ValueError):
        Database(exec_mode="parallel", workers=0)


@pytest.mark.parametrize("mode", ("fuzed", "parallel:0", "fused:2"))
def test_database_rejects_bad_exec_mode_at_construction(mode):
    """A mode typo fails before any INSERT can commit, like ``workers``
    — not at the first SELECT."""
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
# hypothesis sweep: fused vs interp over NULL-laden data, order-exact
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_matrix() -> dict[str, Database]:
    databases: dict[str, Database] = {}
    for mode in ("fused", "interp"):
        db = Database(exec_mode=mode)
        db.execute("CREATE TABLE T (A INTEGER, B INTEGER, S VARCHAR(4))")
        rows = []
        for a in (None, -2, 0, 1, 3, 7):
            for b, s in ((None, "xy"), (2, None), (5, "yx"), (8, "xxxx")):
                rows.append((a, b, s))
        load_rows(db, "T", rows)
        db.execute("UPDATE STATISTICS")
        databases[mode] = db
    return databases


@settings(max_examples=60, deadline=None)
@given(predicate=_predicates())
def test_random_predicates_parallel_order_exact(sweep_matrix, predicate):
    sql = f"SELECT A, B, S FROM T WHERE {predicate}"
    rows = {}
    deltas = {}
    for key, db in sweep_matrix.items():
        rows[key], deltas[key] = _run(db, sql)
    assert rows["fused"] == rows["interp"]
    assert deltas["fused"] == deltas["interp"]


# ---------------------------------------------------------------------------
# a buffer smaller than the hashed inner: the replayed trace must evict
# ---------------------------------------------------------------------------


def _small_buffer_pair() -> dict[str, Database]:
    """Fused and interp databases whose 4-page buffer is smaller than the
    9-page segment-scan inner I, so the probes' replayed fetches evict.

    A unique index on ``O.V`` makes a narrow outer cheap enough that a
    nested loop over the segment-scan inner beats the hash join.
    """
    databases = {}
    for mode in ("fused", "interp"):
        db = Database(exec_mode=mode, buffer_pages=4)
        db.execute("CREATE TABLE O (K INTEGER, V INTEGER)")
        db.execute("CREATE UNIQUE INDEX OV ON O (V)")
        db.execute("CREATE TABLE I (K INTEGER, W INTEGER, PAD VARCHAR(200))")
        load_rows(db, "O", [(i % 60, i) for i in range(400)])
        load_rows(db, "I", [(i % 40, i, "p" * 180) for i in range(160)])
        db.execute("UPDATE STATISTICS")
        databases[mode] = db
    return databases


#: ``(sql, REPRO_HASHJOIN)``: probe SARG only, a join residual, a local
#: SARG beside the probe key, and four probes under the paper's methods.
SMALL_BUFFER_JOINS = [
    ("SELECT O.V, I.W FROM O, I WHERE O.K = I.K AND O.V BETWEEN 5 AND 6", "1"),
    ("SELECT O.V, I.W FROM O, I WHERE O.K = I.K AND I.W > O.V AND O.V = 9", "1"),
    ("SELECT COUNT(*) FROM O, I WHERE O.K = I.K AND O.V = 3 AND I.W < 100", "1"),
    ("SELECT O.V, I.W FROM O, I WHERE O.K = I.K AND O.V BETWEEN 5 AND 8", "0"),
]


@pytest.mark.parametrize(
    "sql,hashjoin",
    SMALL_BUFFER_JOINS,
    ids=["probe", "join-residual", "local-sarg", "paper-methods"],
)
def test_hash_probe_under_a_buffer_smaller_than_the_inner(
    monkeypatch, sql, hashjoin
):
    monkeypatch.setenv("REPRO_HASHJOIN", hashjoin)
    databases = _small_buffer_pair()
    fused = databases["fused"]
    assert len(fused.storage.segment("I").page_ids) > fused.storage.buffer.capacity
    assert _hash_probed(fused, sql), fused.explain(sql)
    built = _count_bucket_builds(monkeypatch)
    rows = {}
    deltas = {}
    for key, db in databases.items():
        rows[key], deltas[key] = _cold_run(db, sql)
    assert rows["fused"] == rows["interp"]
    assert deltas["fused"] == deltas["interp"]
    assert rows["fused"]
    assert len(built) == 1


# ---------------------------------------------------------------------------
# fault matrix: DML that reads through the hash probe stays atomic
# ---------------------------------------------------------------------------

#: The fault workload's tables plus a hash-probe-eligible join: inner O is
#: a plain segment scan probed on ``O.K = I.K``.
PROBE_SETUP = SETUP + [
    "CREATE TABLE O (K INTEGER, V INTEGER)",
    "CREATE TABLE I (K INTEGER, W VARCHAR(8))",
    "INSERT INTO O VALUES "
    + ", ".join(f"({i % 50}, {1000 + i})" for i in range(600)),
    "INSERT INTO I VALUES " + ", ".join(f"({i}, 'w{i}')" for i in range(40)),
    "UPDATE STATISTICS",
]

#: The fault workload, led by DML that reads through the hash probe: every
#: fault point but ``commit.lock`` (taken before the statement reads) fires
#: after the probe has answered the reads of a write.
PROBE_MUTATIONS = [
    "INSERT INTO T SELECT O.V, I.W FROM O, I WHERE O.K = I.K",
    *MUTATIONS,
]

#: Hash-probe DML run after the fault, on the rolled-back or recovered store.
PROBE_AFTER = "INSERT INTO T SELECT O.V + 1000, I.W FROM O, I WHERE O.K = I.K"

#: Every registered fault point, hit once, alternating error/crash so
#: both recovery paths run with the hash probe.
PROBE_FAULT_MATRIX = [
    (point, "error" if index % 2 == 0 else "crash")
    for index, point in enumerate(sorted(registered_points()))
]


@pytest.mark.parametrize(
    "point,action",
    PROBE_FAULT_MATRIX,
    ids=[f"{p}:{a}" for p, a in PROBE_FAULT_MATRIX],
)
def test_fault_matrix_under_parallel(tmp_path, monkeypatch, point, action):
    from repro.analysis.storage_check import logical_dump, verify_storage
    from repro.errors import SimulatedCrash
    from repro.rss.disk import DiskManager
    from repro.rss.faults import FaultPlan

    db = build_db(tmp_path / "db.pages", PROBE_SETUP)
    assert _hash_probed(db, "SELECT O.V, I.W FROM O, I WHERE O.K = I.K")
    built = _count_bucket_builds(monkeypatch)
    plan = FaultPlan(point, hit=1, action=action)
    mirror, error, failed_at, fired = run_workload_under_fault(
        db, plan, PROBE_MUTATIONS
    )
    get_injector().disarm()

    assert fired, f"{plan!r} never fired under the hash probe"
    assert error is not None

    if action == "error":
        assert not isinstance(error, SimulatedCrash)
        assert logical_dump(db) == mirror
        assert verify_storage(db) == []
        assert db.execute(PROBE_AFTER).affected_rows == 480
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
        assert survivor.execute(PROBE_AFTER).affected_rows == 480
        assert verify_storage(survivor) == []
        survivor.close()
    assert built, "the DML must read through the hash probe"


# ---------------------------------------------------------------------------
# no worker pool: statements start no thread, databases close independently
# ---------------------------------------------------------------------------


def _probe_db() -> Database:
    """A database whose join ``O ⋈ I`` runs the hash probe: the outer O
    spans many pages and the segment-scan inner I is probed on
    ``I.K = O.K``."""
    db = Database(buffer_pages=8)
    db.execute("CREATE TABLE O (K INTEGER, V INTEGER)")
    db.execute("CREATE TABLE I (K INTEGER, W INTEGER)")
    load_rows(db, "O", [(i % 50, i) for i in range(3000)])
    load_rows(db, "I", [(i, i * 2) for i in range(40)])
    db.execute("UPDATE STATISTICS")
    return db


def test_close_leaves_no_worker_threads_alive():
    """The ``parallel`` spelling runs every statement on the calling
    thread: no statement starts a thread, so none outlives ``close()``."""
    before = set(threading.enumerate())
    db = _probe_db()
    db.exec_mode = "parallel"
    db.workers = 2
    sql = "SELECT COUNT(*) FROM O, I WHERE O.K = I.K AND O.V >= 10"
    assert _hash_probed(db, sql)
    assert db.execute(sql).scalar() == 2390
    assert set(threading.enumerate()) <= before
    db.close()
    assert set(threading.enumerate()) <= before


def test_closing_another_database_spares_a_running_statement():
    """A statement part-way through its hash probe finishes after another
    database closes."""
    db = _probe_db()
    rows = db.executor().execute_rows(
        db.plan("SELECT O.V, I.W FROM O, I WHERE O.K = I.K")
    )
    next(rows)
    Database().close()
    assert 1 + sum(1 for __ in rows) == 2400
    db.close()


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
