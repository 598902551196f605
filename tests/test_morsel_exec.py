"""Morsel scheduling ≡ fused across morsel sizes, worker counts, and breakers.

The scheduler (``engine/scheduler.py``) decomposes eligible scans into
fixed-size page morsels pulled from a shared thread-pool queue.
Scheduling must be invisible: every combination of morsel size × worker
count has to reproduce the fused engine's rows *in order* and its exact
cost counters (page fetches, RSI calls, buffer hits).  On top of that
ride the two parallel breakers (partial aggregation, parallel sort
runs), pool lifecycle (the last ``Database.close()`` leaves no
``repro-worker`` threads, and no other close stops a running
statement), and loud failures for bad knob values.
"""

from __future__ import annotations

import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.engine.scheduler import (
    DEFAULT_MORSEL_PAGES,
    SerialBackend,
    get_backend,
    morsel_pages,
    morsel_ranges,
    shutdown_backends,
)
from repro.sql import ast
from repro.workloads import build_empdept
from repro.workloads.empdept import load_rows

from tests.test_compiled_eval import _predicates, _run

#: Queries spanning the morsel-scheduled shapes: bare/filtered scans,
#: direct projection, probe joins, aggregation, and enforced order.
MORSEL_QUERIES = (
    "SELECT ENO, NAME, SAL FROM EMP",
    "SELECT NAME, SAL FROM EMP WHERE SAL > 400 AND JOB = 2",
    "SELECT ENO, SAL * 12 FROM EMP WHERE SAL / 2 > 150",
    "SELECT ENO FROM EMP WHERE SAL BETWEEN 200 AND 800 AND DNO IN (1, 2, 3)",
    "SELECT NAME, DNAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO AND SAL > 300",
    "SELECT COUNT(*), SUM(SAL), MIN(SAL), MAX(SAL) FROM EMP WHERE JOB = 2",
    "SELECT DNO, COUNT(*) FROM EMP GROUP BY DNO HAVING COUNT(*) > 2",
    "SELECT NAME, SAL FROM EMP WHERE DNO <= 12 ORDER BY SAL DESC, NAME",
)


def _empdept(mode: str, workers: int | None = None) -> Database:
    db = build_empdept(employees=300, departments=12, seed=3)
    db.exec_mode = mode
    db.workers = workers
    return db


@pytest.fixture(scope="module")
def fused_db() -> Database:
    return _empdept("fused")


@pytest.fixture(scope="module")
def parallel_db() -> Database:
    return _empdept("parallel", workers=4)


def _cold_run(db: Database, sql: str):
    db.storage.cold_cache()
    return _run(db, sql)


@pytest.mark.parametrize("pages", (1, 3, 7))
def test_morsel_sizes_agree_with_fused(monkeypatch, fused_db, parallel_db, pages):
    """Any morsel size: rows, order, and counters are bit-identical to
    fused — the gather replays the serial trace."""
    monkeypatch.setenv("REPRO_MORSEL_PAGES", str(pages))
    for sql in MORSEL_QUERIES:
        expected = _cold_run(fused_db, sql)
        assert _cold_run(parallel_db, sql) == expected, sql


# ---------------------------------------------------------------------------
# hypothesis sweep: random predicates x morsel sizes x workers
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_pair() -> tuple[Database, Database]:
    databases = []
    for mode in ("fused", "parallel"):
        db = Database(exec_mode=mode)
        db.execute("CREATE TABLE T (A INTEGER, B INTEGER, S VARCHAR(4))")
        rows = []
        for a in (None, -2, 0, 1, 3, 7):
            for b, s in ((None, "xy"), (2, None), (5, "yx"), (8, "xxxx")):
                rows.append((a, b, s))
        load_rows(db, "T", rows)
        db.execute("UPDATE STATISTICS")
        databases.append(db)
    return databases[0], databases[1]


@settings(max_examples=50, deadline=None)
@given(
    predicate=_predicates(),
    pages=st.integers(min_value=1, max_value=9),
    workers=st.sampled_from((1, 2, 4)),
)
def test_random_morsel_schedules_are_order_exact(
    sweep_pair, predicate, pages, workers
):
    fused, parallel = sweep_pair
    parallel.workers = workers
    sql = f"SELECT A, B, S FROM T WHERE {predicate}"
    saved = os.environ.get("REPRO_MORSEL_PAGES")
    os.environ["REPRO_MORSEL_PAGES"] = str(pages)
    try:
        assert _run(parallel, sql) == _run(fused, sql)
    finally:
        if saved is None:
            del os.environ["REPRO_MORSEL_PAGES"]
        else:
            os.environ["REPRO_MORSEL_PAGES"] = saved


# ---------------------------------------------------------------------------
# pool lifecycle: close() reclaims workers, atexit-safe registry
# ---------------------------------------------------------------------------


def _worker_threads() -> list[threading.Thread]:
    return [
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("repro-worker")
    ]


def test_close_leaves_no_worker_threads_alive():
    shutdown_backends()
    db = Database(exec_mode="parallel", workers=2)
    db.execute("CREATE TABLE T (A INTEGER)")
    for i in range(50):
        db.execute(f"INSERT INTO T VALUES ({i})")
    db.execute("UPDATE STATISTICS")
    assert db.execute("SELECT COUNT(*) FROM T WHERE A >= 10").scalar() == 40
    assert _worker_threads(), "the parallel statement must have used the pool"
    db.close()
    assert _worker_threads() == []


def test_closing_another_database_spares_a_running_statement():
    """A hash-join probe submits pool tasks per outer batch, so it needs
    its pool after the first row; closing a database that holds no pool
    must not shut it down under the statement."""
    from repro.analysis.check import hashjoin_corpus

    shutdown_backends()
    db = hashjoin_corpus()[0][0]
    db.exec_mode = "parallel"
    db.workers = 2
    rows = db.executor().execute_rows(
        db.plan(
            "SELECT T1.A, T2.J1 FROM T1, T2 "
            "WHERE T1.J1 = T2.J1 AND T1.A < 40"
        )
    )
    next(rows)
    Database().close()
    assert 1 + sum(1 for __ in rows) == 14983
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
    import sys

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


# ---------------------------------------------------------------------------
# knob plumbing: loud failures, not silent defaults
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text", ("0", "-3", "x", "2.5"))
def test_bad_morsel_sizes_fail_loudly(monkeypatch, text):
    monkeypatch.setenv("REPRO_MORSEL_PAGES", text)
    with pytest.raises(ValueError, match="REPRO_MORSEL_PAGES"):
        morsel_pages()


def test_morsel_pages_defaults_without_env(monkeypatch):
    monkeypatch.delenv("REPRO_MORSEL_PAGES", raising=False)
    assert morsel_pages() == DEFAULT_MORSEL_PAGES


@pytest.mark.parametrize("count", (0, 1, 5, 17, 64))
@pytest.mark.parametrize("pages", (1, 3, 8))
def test_morsel_ranges_cover_every_page_once(count, pages):
    ranges = morsel_ranges(count, pages)
    covered = [page for lo, hi in ranges for page in range(lo, hi)]
    assert covered == list(range(count))
    assert all(hi - lo <= pages for lo, hi in ranges)


# ---------------------------------------------------------------------------
# the kernel seam: one page loop behind every scheduler
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "sql,sarg,positions",
    [
        ("SELECT B, A FROM T WHERE A < 5", (0, "<", 5), (1, 0)),
        ("SELECT B FROM T", None, (1,)),
        ("SELECT A FROM T WHERE A = 99", (0, "=", 99), (0,)),
    ],
)
def test_every_scheduler_runs_the_same_scan_kernel(
    agg_pair, sql, sarg, positions
):
    """Same pages + SARGs + processor through the kernel directly, its
    morsels on the thread pool, the serial fused driver, and the
    parallel driver: identical RSI charges and identical chunks."""
    from functools import partial

    from repro.engine.executor import Runtime, _context_for
    from repro.engine.fuse import _output_program
    from repro.engine.scheduler import columns_processor, scan_pages
    from repro.rss.sargs import CompareOp, SargPredicate, Sargs, compile_matcher
    from repro.rss.tuples import DecodePlan

    db, __ = agg_pair
    table = db.catalog.table("T")
    datatypes = [column.datatype for column in table.columns]
    sargs = None
    if sarg is not None:
        position, op, value = sarg
        sargs = Sargs([[SargPredicate(position, CompareOp(op), value)]])
    decode = DecodePlan(datatypes).decode
    matcher = compile_matcher(sargs, datatypes)
    snapshot = db.storage.scan_snapshot(table)
    page_count = len(snapshot.page_ids)
    assert page_count > 2 * 3, "need several morsels"

    def flatten(counters, pages):
        chunks = [chunk for page in pages for chunk in page if chunk]
        return counters.rsi_calls, chunks

    counters, pages = scan_pages(
        snapshot.freeze_range(0, page_count),
        snapshot.relation_id,
        decode,
        matcher,
        columns_processor(positions),
    )
    assert counters.page_fetches == 0, "the kernel never touches the buffer"
    expected = flatten(counters, pages)

    tasks = [
        partial(
            scan_pages,
            snapshot.freeze_range(lo, hi),
            snapshot.relation_id,
            decode,
            matcher,
            columns_processor(positions),
        )
        for lo, hi in morsel_ranges(page_count, 3)
    ]
    merged, shipped = type(counters)(), []
    for morsel_counters, morsel_out in get_backend(2).imap(tasks):
        merged.merge(morsel_counters)
        shipped.extend(morsel_out)
    assert flatten(merged, shipped) == expected

    planned = db.plan(sql)
    for mode in ("fused", "parallel"):
        runtime = Runtime(
            db.storage, db.catalog, planned, exec_mode=mode, workers=2
        )
        ctx = _context_for(runtime, planned)
        db.storage.cold_cache()
        before = db.counters.snapshot()
        chunks = list(_output_program(planned.root, ctx)(ctx, None))
        delta = before.delta(db.counters)
        assert (delta.rsi_calls, chunks) == expected, mode
        assert delta.page_fetches == page_count, mode


# ---------------------------------------------------------------------------
# parallel partial aggregation vs the serial scan-aggregate fold
# ---------------------------------------------------------------------------

AGG_QUERIES = (
    "SELECT COUNT(*) FROM T",
    "SELECT COUNT(B), SUM(B), MIN(B), MAX(B), AVG(B) FROM T",
    "SELECT COUNT(*), SUM(B) FROM T WHERE A < 5",
    "SELECT COUNT(DISTINCT B), SUM(B) FROM T WHERE A >= 2",
    "SELECT MIN(B), MAX(B) FROM T WHERE A = 99",
)


@pytest.fixture(scope="module")
def agg_pair() -> tuple[Database, Database]:
    import random

    databases = []
    for mode in ("fused", "parallel"):
        rng = random.Random(11)
        db = Database(exec_mode=mode, workers=4)
        db.execute("CREATE TABLE T (A INTEGER, B INTEGER)")
        rows = [
            (rng.randrange(8), None if rng.random() < 0.1 else rng.randrange(60))
            for __ in range(2000)
        ]
        load_rows(db, "T", rows)
        db.execute("UPDATE STATISTICS")
        databases.append(db)
    return databases[0], databases[1]


@pytest.mark.parametrize("workers", (2, 4))
@pytest.mark.parametrize("sql", AGG_QUERIES)
def test_partial_aggregation_agrees_with_serial(agg_pair, sql, workers):
    fused, parallel = agg_pair
    parallel.workers = workers
    assert _cold_run(parallel, sql) == _cold_run(fused, sql)


def test_parallel_aggregate_driver_engages(agg_pair):
    """The differential above is vacuous unless the driver is eligible."""
    from repro.engine.executor import Runtime, _context_for
    from repro.engine.parallel import parallel_aggregate_driver
    from repro.optimizer.plan import AggregateNode, walk_plan

    __, parallel = agg_pair
    planned = parallel.plan("SELECT COUNT(*), SUM(B) FROM T WHERE A < 5")
    runtime = Runtime(
        parallel.storage, parallel.catalog, planned,
        exec_mode="parallel", workers=4,
    )
    ctx = _context_for(runtime, planned)
    node = next(
        node for node in walk_plan(planned.root)
        if isinstance(node, AggregateNode)
    )
    assert parallel_aggregate_driver(node, ctx) is not None


def test_empty_input_ungrouped_aggregates_yield_one_row(agg_pair):
    fused, parallel = agg_pair
    parallel.workers = 4
    from repro.errors import SemanticError

    for db in (fused, parallel):
        try:
            db.catalog.table("E")
        except SemanticError:
            db.execute("CREATE TABLE E (A INTEGER, B INTEGER)")
            db.execute("UPDATE STATISTICS")
    sql = "SELECT COUNT(*), SUM(B), MIN(B) FROM E"
    expected = _cold_run(fused, sql)
    assert expected[0] == [(0, None, None)]
    assert _cold_run(parallel, sql) == expected


def _call(name: str, argument: int | None, distinct: bool) -> ast.FuncCall:
    """An aggregate call as the fold sees it: ``argument`` is the column
    position it reads, ``None`` for ``COUNT(*)``."""
    column = None if argument is None else ast.ColumnRef(None, f"C{argument}")
    return ast.FuncCall(name, column, distinct)


def test_agg_state_merge_matches_serial_fold():
    """Partial states merged across any split reproduce the serial fold."""
    from repro.engine.operators import _AggState

    values = [3, None, 7, 3, -2, None, 11, 3, 0, 7]
    for name in ("COUNT", "SUM", "MIN", "MAX", "AVG"):
        for distinct in (False, True):
            for argument in (None, 0):
                if argument is None and (distinct or name != "COUNT"):
                    continue
                call = _call(name, argument, distinct)
                serial = _AggState(call)
                for value in values:
                    serial.add(None if argument is None else value)
                for split in range(len(values) + 1):
                    left, right = _AggState(call), _AggState(call)
                    for value in values[:split]:
                        left.add(None if argument is None else value)
                    for value in values[split:]:
                        right.add(None if argument is None else value)
                    left.merge(right)
                    assert left.result() == serial.result(), (
                        name, distinct, argument, split,
                    )


def test_fold_pages_emits_runs_in_first_occurrence_order():
    """The worker fold keeps streaming (adjacency) group semantics."""
    from repro.engine.scheduler import fold_pages
    from repro.rss.tuples import DecodePlan

    db = Database()
    db.execute("CREATE TABLE G (K INTEGER, V INTEGER)")
    rows = [(k, k * 10 + i) for k in (1, 1, 2, 2, 2, 3, 1) for i in (0, 1)]
    load_rows(db, "G", rows)
    db.execute("UPDATE STATISTICS")
    table = db.catalog.table("G")
    snapshot = db.storage.scan_snapshot(table)
    datatypes = [column.datatype for column in table.columns]
    counters, page_count, runs = fold_pages(
        snapshot.freeze_range(0, len(snapshot.page_ids)),
        snapshot.relation_id,
        DecodePlan(datatypes).decode,
        None,
        (0,),
        (None, 1),
        (_call("COUNT", None, False), _call("SUM", 1, False)),
    )
    assert page_count == len(snapshot.page_ids)
    # Streaming semantics: key 1 reappearing after 3 opens a new run.
    assert [key for key, __, ___, ____ in runs] == [(1,), (2,), (3,), (1,)]
    assert [states[0].result() for __, states, ___, ____ in runs] == [
        4, 6, 2, 2,
    ]
    assert counters.rsi_calls == len(rows)


# ---------------------------------------------------------------------------
# parallel sort runs vs the serial run sort
# ---------------------------------------------------------------------------


def test_parallel_run_sorter_matches_serial_incl_ties():
    """Per-worker sorted slices + k-way merge == one stable sort, with
    duplicate keys and NULLs; below the slice threshold it falls back."""
    import random

    from repro.engine.executor import Runtime, _context_for
    from repro.engine.external_sort import _sorted_run
    from repro.engine.parallel import parallel_run_sorter
    from repro.engine.rows import Row
    from repro.optimizer.plan import SortNode, walk_plan

    db = Database(exec_mode="parallel", workers=4)
    db.execute("CREATE TABLE S (A INTEGER, B INTEGER)")
    db.execute("INSERT INTO S VALUES (1, 2)")
    db.execute("UPDATE STATISTICS")
    planned = db.plan("SELECT A, B FROM S ORDER BY A, B DESC")
    keys = next(
        node for node in walk_plan(planned.root)
        if isinstance(node, SortNode)
    ).keys
    runtime = Runtime(
        db.storage, db.catalog, planned, exec_mode="parallel", workers=4
    )
    ctx = _context_for(runtime, planned)
    sorter = parallel_run_sorter(ctx, keys)

    rng = random.Random(5)
    for count in (40, 700, 2000):
        rows = [
            Row(values={"S": (
                rng.choice((None, 0, 1, 1, 2, 5)),
                rng.choice((None, 3, 3, 8)),
            )})
            for __ in range(count)
        ]
        assert sorter(list(rows)) == _sorted_run(rows, keys)
    db.close()


def test_order_by_large_input_agrees_under_parallel_sort():
    """End-to-end ORDER BY above the slice threshold: rows, order, and
    sort temp traffic (counters) identical to fused."""
    fused = build_empdept(employees=1500, departments=24, seed=7)
    parallel = build_empdept(employees=1500, departments=24, seed=7)
    parallel.exec_mode = "parallel"
    parallel.workers = 4
    sql = "SELECT ENO, NAME, SAL FROM EMP ORDER BY SAL DESC, NAME"
    expected = _cold_run(fused, sql)
    assert len(expected[0]) == 1500
    assert _cold_run(parallel, sql) == expected
    fused.close()
    parallel.close()
