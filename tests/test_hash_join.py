"""Hash join, end to end: DP choice, cross-mode fidelity, equivalence, faults.

The corpus mirrors the two crossover shapes of ``repro check --fusion``'s
hash-join audit: an unindexed large join whose filtered build side fits in
memory (``partitions == 1``) and a padded join whose build side exceeds the
buffer pool (grace partitioning).  Every query runs through both
engines — interp and fused — and the ``parallel`` spelling of the fused
engine over physically identical databases and must produce identical
rows *and* identical cost counters.  A hypothesis sweep with NULL-laden
join keys pins three-valued logic (NULL keys never match) against a naive
Python reference join, and the full fault matrix replays mixed DML whose
statements read through the fused engine's hash join.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.analysis.storage_check import logical_dump, verify_storage
from repro.errors import SimulatedCrash, StorageError
from repro.optimizer.explain import plan_summary
from repro.optimizer.plan import (
    HashJoinNode,
    SortNode,
    walk_plan,
)
from repro.rss.disk import DiskManager
from repro.rss.faults import FaultPlan, get_injector, registered_points
from repro.workloads.empdept import load_rows
from repro.workloads.generator import ColumnSpec, TableSpec, build_database

@pytest.fixture(autouse=True)
def _disarm():
    yield
    get_injector().disarm()


MODES = ("interp", "fused", "parallel")

MEMORY_TABLES = [
    TableSpec(
        "T1", 1500, [ColumnSpec("A", 50), ColumnSpec("J1", 200)], [],
        pad_bytes=80,
    ),
    TableSpec(
        "T2", 2500, [ColumnSpec("J1", 200), ColumnSpec("B", 10)], [],
        pad_bytes=80,
    ),
]
GRACE_TABLES = [
    TableSpec(
        "G1", 3000, [ColumnSpec("A", 50), ColumnSpec("J1", 400)], [],
        pad_bytes=160,
    ),
    TableSpec(
        "G2", 3000, [ColumnSpec("J1", 400), ColumnSpec("B", 10)], [],
        pad_bytes=160,
    ),
]

MEMORY_QUERIES = [
    "SELECT T1.A, T2.J1 FROM T1, T2 WHERE T1.J1 = T2.J1 AND T2.B = 3",
    "SELECT T1.A, T2.B FROM T1, T2 "
    "WHERE T1.J1 = T2.J1 AND T2.B = 3 ORDER BY T1.A",
    "SELECT COUNT(*) FROM T1, T2 WHERE T1.J1 = T2.J1",
]
GRACE_QUERIES = [
    "SELECT G1.A, G2.B FROM G1, G2 WHERE G1.J1 = G2.J1",
    "SELECT COUNT(*) FROM G1, G2 WHERE G1.J1 = G2.J1",
]


def _build(tables, buffer_pages, mode):
    db = build_database(tables, seed=7, buffer_pages=buffer_pages)
    db.exec_mode = mode
    return db


@pytest.fixture(scope="module")
def memory_matrix() -> dict:
    """Physically identical in-memory-crossover databases, one per mode."""
    return {mode: _build(MEMORY_TABLES, 24, mode) for mode in MODES}


@pytest.fixture(scope="module")
def grace_matrix() -> dict:
    """Physically identical grace-crossover databases, one per mode."""
    return {mode: _build(GRACE_TABLES, 32, mode) for mode in MODES}


def _run(db: Database, sql: str):
    """Execute from a cold cache; return (rows, counter delta)."""
    db.storage.cold_cache()
    before = db.storage.counters.snapshot()
    result = db.execute(sql)
    delta = before.delta(db.storage.counters)
    return result.rows, delta


def _hash_nodes(db: Database, sql: str) -> list[HashJoinNode]:
    planned = db.plan(sql)
    return [
        node
        for node in walk_plan(planned.root)
        if isinstance(node, HashJoinNode)
    ]


# ---------------------------------------------------------------------------
# the DP picks hash join exactly where the formula says it wins
# ---------------------------------------------------------------------------


class TestPlanChoice:
    @pytest.mark.parametrize("sql", MEMORY_QUERIES)
    def test_memory_corpus_picks_hash(self, memory_matrix, sql):
        nodes = _hash_nodes(memory_matrix["interp"], sql)
        assert nodes, f"expected a hash join for {sql!r}"

    def test_filtered_build_side_stays_in_memory(self, memory_matrix):
        # T2.B = 3 trims the build side to ~250 rows: it fits the pool.
        # The unfiltered COUNT query's 2500-row build side does not, and
        # the same formula sends it through grace partitioning instead.
        for sql in MEMORY_QUERIES[:2]:
            for node in _hash_nodes(memory_matrix["interp"], sql):
                assert node.partitions == 1
        for node in _hash_nodes(memory_matrix["interp"], MEMORY_QUERIES[2]):
            assert node.partitions > 1

    @pytest.mark.parametrize("sql", GRACE_QUERIES)
    def test_grace_corpus_partitions_build_side(self, grace_matrix, sql):
        nodes = _hash_nodes(grace_matrix["interp"], sql)
        assert nodes, f"expected a hash join for {sql!r}"
        for node in nodes:
            assert node.partitions > 1

    @pytest.mark.parametrize(
        "sql", MEMORY_QUERIES + GRACE_QUERIES,
        ids=range(len(MEMORY_QUERIES + GRACE_QUERIES)),
    )
    def test_build_side_is_the_smaller_input(
        self, memory_matrix, grace_matrix, sql
    ):
        db = memory_matrix["interp"] if "T1" in sql else grace_matrix["interp"]
        for node in _hash_nodes(db, sql):
            assert node.inner.rows <= node.outer.rows + 1e-9

    def test_hash_join_claims_no_order(self, memory_matrix):
        for sql in MEMORY_QUERIES:
            for node in _hash_nodes(memory_matrix["interp"], sql):
                assert node.order_columns == ()

    def test_order_by_adds_sort_enforcer_over_hash(self, memory_matrix):
        planned = memory_matrix["interp"].plan(MEMORY_QUERIES[1])
        sorts = [
            node
            for node in walk_plan(planned.root)
            if isinstance(node, SortNode)
            and any(
                isinstance(below, HashJoinNode) for below in walk_plan(node)
            )
        ]
        assert sorts, "ORDER BY over a hash join needs an explicit sort"

    def test_buffer_resident_inner_keeps_nested_loop(self, empdept):
        # DEPT fits in the buffer pool: repeated NL probes are nearly free
        # and the per-tuple hashing overhead cannot pay for itself.
        sql = "SELECT NAME, DNAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO"
        assert _hash_nodes(empdept, sql) == []

    def test_env_gate_removes_hash_join(self, memory_matrix, monkeypatch):
        db = memory_matrix["interp"]
        reference = {sql: db.query(sql).rows for sql in MEMORY_QUERIES}
        monkeypatch.setenv("REPRO_HASHJOIN", "0")
        for sql in MEMORY_QUERIES:
            assert _hash_nodes(db, sql) == []
            assert sorted(db.query(sql).rows) == sorted(reference[sql])

    def test_explain_renders_hash_join(self, memory_matrix, grace_matrix):
        memory_explain = memory_matrix["interp"].explain(MEMORY_QUERIES[0])
        assert "hash join (build T2) on T1.J1 = T2.J1" in memory_explain
        grace_explain = grace_matrix["interp"].explain(GRACE_QUERIES[0])
        assert "hash join (build " in grace_explain
        assert ", grace x" in grace_explain

    def test_plan_summary_renders_hash_join(self, memory_matrix):
        planned = memory_matrix["interp"].plan(MEMORY_QUERIES[0])
        summary = plan_summary(planned.root)
        assert "HASH(" in summary
        assert "build" in summary


# ---------------------------------------------------------------------------
# rows and cost counters are bit-identical across every execution mode
# ---------------------------------------------------------------------------


class TestModeFidelity:
    @pytest.mark.parametrize("sql", MEMORY_QUERIES)
    def test_memory_modes_identical(self, memory_matrix, sql):
        reference = _run(memory_matrix["interp"], sql)
        for mode in MODES:
            if mode == "interp":
                continue
            assert _run(memory_matrix[mode], sql) == reference, mode

    @pytest.mark.parametrize("sql", GRACE_QUERIES)
    def test_grace_modes_identical(self, grace_matrix, sql):
        reference = _run(grace_matrix["interp"], sql)
        for mode in MODES:
            if mode == "interp":
                continue
            assert _run(grace_matrix[mode], sql) == reference, mode


# ---------------------------------------------------------------------------
# hash ≡ merge ≡ nested loop on rows (and on order where one is required)
# ---------------------------------------------------------------------------


class TestMethodEquivalence:
    def test_memory_corpus_hash_off_equivalence(
        self, memory_matrix, monkeypatch
    ):
        reference = {
            sql: memory_matrix["interp"].query(sql).rows
            for sql in MEMORY_QUERIES
        }
        monkeypatch.setenv("REPRO_HASHJOIN", "0")
        fallback = _build(MEMORY_TABLES, 24, "interp")
        for sql in MEMORY_QUERIES:
            assert _hash_nodes(fallback, sql) == []
            rows = fallback.query(sql).rows
            assert sorted(rows) == sorted(reference[sql])
        # The ORDER BY query must agree on the ordered column exactly.
        ordered = fallback.query(MEMORY_QUERIES[1]).rows
        assert [row[0] for row in ordered] == [
            row[0] for row in reference[MEMORY_QUERIES[1]]
        ]

    def test_grace_corpus_hash_off_equivalence(
        self, grace_matrix, monkeypatch
    ):
        reference = {
            sql: grace_matrix["interp"].query(sql).rows
            for sql in GRACE_QUERIES
        }
        monkeypatch.setenv("REPRO_HASHJOIN", "0")
        fallback = _build(GRACE_TABLES, 32, "interp")
        for sql in GRACE_QUERIES:
            assert _hash_nodes(fallback, sql) == []
            assert sorted(fallback.query(sql).rows) == sorted(reference[sql])


# ---------------------------------------------------------------------------
# NULL join keys never match (three-valued logic), vs a reference join
# ---------------------------------------------------------------------------


def _wide_pair_db(keys1, keys2) -> Database:
    """Two unindexed wide tables sized past a 4-page pool: hash wins."""
    db = Database(buffer_pages=4)
    db.execute("CREATE TABLE T1 (K INTEGER, V INTEGER, PAD VARCHAR(300))")
    db.execute("CREATE TABLE T2 (K INTEGER, W INTEGER, PAD VARCHAR(300))")
    load_rows(db, "T1", [(k, i, "x" * 280) for i, k in enumerate(keys1)])
    load_rows(db, "T2", [(k, i * 2, "y" * 280) for i, k in enumerate(keys2)])
    db.execute("UPDATE STATISTICS")
    return db


class TestNullKeys:
    KEYS = st.lists(
        st.one_of(st.none(), st.integers(0, 7)), min_size=100, max_size=140
    )

    @settings(max_examples=10, deadline=None)
    @given(keys1=KEYS, keys2=KEYS)
    def test_null_keys_excluded_and_methods_agree(self, keys1, keys2):
        db = _wide_pair_db(keys1, keys2)
        sql = "SELECT T1.V, T2.W FROM T1, T2 WHERE T1.K = T2.K"
        assert _hash_nodes(db, sql), "the sweep must exercise hash plans"
        expected = sorted(
            (i, j * 2)
            for i, k1 in enumerate(keys1)
            if k1 is not None
            for j, k2 in enumerate(keys2)
            if k1 == k2
        )
        assert sorted(db.query(sql).rows) == expected
        # Same rows from the sort/merge + nested-loop planner.  The
        # textually distinct (but equivalent) predicate keeps the two
        # plans from ever being confused in failure output.
        os.environ["REPRO_HASHJOIN"] = "0"
        try:
            off = "SELECT T1.V, T2.W FROM T1, T2 WHERE T2.K = T1.K"
            assert _hash_nodes(db, off) == []
            assert sorted(db.query(off).rows) == expected
        finally:
            del os.environ["REPRO_HASHJOIN"]


# ---------------------------------------------------------------------------
# DML through hash-join plans
# ---------------------------------------------------------------------------


class TestDML:
    @pytest.mark.parametrize("mode", ["interp", "parallel"])
    def test_insert_select_through_hash_join(self, mode):
        db = _build(MEMORY_TABLES, 24, mode)
        select = (
            "SELECT T1.A, T2.J1 FROM T1, T2 "
            "WHERE T1.J1 = T2.J1 AND T2.B = 3"
        )
        assert _hash_nodes(db, select)
        expected = sorted(db.query(select).rows)
        db.execute("CREATE TABLE TOUT (A INTEGER, J INTEGER)")
        result = db.execute(f"INSERT INTO TOUT {select}")
        assert result.affected_rows == len(expected)
        assert sorted(db.query("SELECT A, J FROM TOUT").rows) == expected
        # And the loaded rows are further mutable under the same mode.
        db.execute("DELETE FROM TOUT WHERE J <> 3")
        db.execute("UPDATE TOUT SET A = A + 1 WHERE J = 3")
        assert sorted(db.query("SELECT A, J FROM TOUT").rows) == sorted(
            (a + 1, j) for a, j in expected if j == 3
        )


# ---------------------------------------------------------------------------
# the fault matrix on hash-join statements, through the fused hash join
# ---------------------------------------------------------------------------


def _fault_db(path) -> Database:
    db = Database(path=str(path), buffer_pages=4, exec_mode="fused")
    db.execute("CREATE TABLE T1 (K INTEGER, V INTEGER, PAD VARCHAR(300))")
    db.execute("CREATE TABLE T2 (K INTEGER, W INTEGER, PAD VARCHAR(300))")
    load_rows(
        db,
        "T1",
        [(None if i % 9 == 0 else i % 16, i, "x" * 280) for i in range(120)],
    )
    load_rows(
        db,
        "T2",
        [
            (None if i % 7 == 0 else i % 16, i * 2, "y" * 280)
            for i in range(150)
        ],
    )
    db.execute("UPDATE STATISTICS")
    db.execute("CREATE TABLE TOUT (V INTEGER, W INTEGER, P VARCHAR(500))")
    db.execute("CREATE INDEX TOUT_V ON TOUT (V)")
    db.execute("CREATE INDEX TOUT_P ON TOUT (P)")
    assert _hash_nodes(db, "SELECT T1.V, T2.W FROM T1, T2 WHERE T1.K = T2.K")
    return db


#: Mixed DML whose reading side always plans a hash join: segment and
#: B-tree inserts (wide TOUT_P keys force splits), updates, deletes, and
#: every commit-path point, exactly like the core fault matrix.
HASH_MUTATIONS = [
    "INSERT INTO TOUT "
    "SELECT T1.V, T2.W, T1.PAD FROM T1, T2 WHERE T1.K = T2.K",
    "UPDATE TOUT SET W = W + 1 WHERE V < 40",
    "DELETE FROM TOUT WHERE V >= 80",
    "INSERT INTO TOUT SELECT T1.V + 1000, T2.W, T2.PAD FROM T1, T2 "
    "WHERE T2.K = T1.K AND T2.W < 60",
    "DELETE FROM TOUT WHERE V >= 1000",
]

HASH_FAULT_MATRIX = [
    (point, "error" if position % 2 == 0 else "crash")
    for position, point in enumerate(sorted(registered_points()))
]


@pytest.mark.parametrize(
    "point,action", HASH_FAULT_MATRIX,
    ids=[f"{p}:{a}" for p, a in HASH_FAULT_MATRIX],
)
def test_fused_hash_join_fault_matrix(tmp_path, point, action):
    db = _fault_db(tmp_path / "db.pages")
    injector = get_injector()
    injector.arm(FaultPlan(point, hit=1, action=action))
    mirror = logical_dump(db)
    error = None
    failed_at = None
    try:
        for position, sql in enumerate(HASH_MUTATIONS):
            try:
                db.execute(sql)
            except StorageError as caught:
                error = caught
                failed_at = position
                break
            mirror = logical_dump(db)
    finally:
        fired = list(injector.fired)
        injector.disarm()

    assert fired, f"{point} never fired; the workload no longer reaches it"
    assert error is not None, f"{point} fired but no statement failed"

    if action == "error":
        assert not isinstance(error, SimulatedCrash)
        # full rollback: the live store is exactly the pre-statement store
        assert logical_dump(db) == mirror
        assert verify_storage(db) == []
        # still good for the rest of the workload, including a retry
        for sql in HASH_MUTATIONS[failed_at:]:
            db.execute(sql)
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
        # recovery lands on the last committed (pre-statement) state
        assert logical_dump(survivor) == mirror
        assert verify_storage(survivor) == []
        survivor.close()
