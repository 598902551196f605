"""Serialization roundtrips and whole-database crash recovery."""

import pytest

from repro.analysis.storage_check import logical_dump, verify_storage
from repro.database import Database
from repro.errors import RecoveryError, ReproError
from repro.rss.btree import _InternalNode, _LeafNode, orderable_key
from repro.rss.page import PAGE_SIZE, Page, TupleId
from repro.rss.recovery import (
    IndexMeta,
    StoreMeta,
    deserialize_meta,
    deserialize_page,
    serialize_meta,
    serialize_page,
)


class TestPageRoundtrips:
    def test_data_page(self):
        page = Page(7)
        page.insert(b"hello world")
        page.insert(b"second record")
        payload = serialize_page(page)
        clone = deserialize_page(7, payload)
        assert isinstance(clone, Page)
        assert clone.page_id == 7
        assert bytes(clone.data) == bytes(page.data)

    def test_leaf_node(self):
        leaf = _LeafNode()
        leaf.page_id = 9
        leaf.next_page_id = 12
        for number in (3, 1, 2):
            key = (number,)
            leaf.entries.append((orderable_key(key), key, TupleId(5, number)))
        clone = deserialize_page(9, serialize_page(leaf))
        assert isinstance(clone, _LeafNode)
        assert clone.next_page_id == 12
        assert [entry[1] for entry in clone.entries] == [
            entry[1] for entry in leaf.entries
        ]
        assert [entry[2] for entry in clone.entries] == [
            entry[2] for entry in leaf.entries
        ]
        # the orderable wrappers are rebuilt, not pickled
        assert [entry[0] for entry in clone.entries] == [
            entry[0] for entry in leaf.entries
        ]

    def test_internal_node(self):
        node = _InternalNode()
        node.page_id = 4
        node.keys = [orderable_key((10,)), orderable_key((20,))]
        node.children = [1, 2, 3]
        clone = deserialize_page(4, serialize_page(node))
        assert isinstance(clone, _InternalNode)
        assert clone.keys == node.keys
        assert clone.children == node.children

    def test_meta(self):
        meta = StoreMeta(
            catalog=None,
            segments=[("EMP", [1, 2, 3])],
            indexes=[IndexMeta("EMPNO", 4, 5, 42, key_types=[])],
        )
        clone = deserialize_meta(serialize_meta(meta))
        assert clone.segments == [("EMP", [1, 2, 3])]
        assert clone.indexes[0].name == "EMPNO"
        assert clone.indexes[0].entry_count == 42

    def test_bad_payloads_refused(self):
        with pytest.raises(RecoveryError, match="tag"):
            deserialize_page(1, b"Zgarbage")
        with pytest.raises(RecoveryError, match="bytes"):
            deserialize_page(1, b"P" + b"\0" * (PAGE_SIZE - 1))
        with pytest.raises(RecoveryError):
            deserialize_meta(b"P" + b"\0" * PAGE_SIZE)
        with pytest.raises(RecoveryError):
            serialize_page(object())


@pytest.fixture
def populated_path(tmp_path):
    """A closed durable database with tables, indexes and statistics."""
    path = tmp_path / "db.pages"
    db = Database(path=str(path))
    db.execute("CREATE TABLE EMP (EMPNO INTEGER, NAME VARCHAR(20), DEPT INTEGER)")
    db.execute("CREATE UNIQUE INDEX EMPNO_IDX ON EMP (EMPNO)")
    db.execute("CREATE INDEX DEPT_IDX ON EMP (DEPT)")
    for i in range(30):
        db.execute(f"INSERT INTO EMP VALUES ({i}, 'EMP{i}', {i % 4})")
    db.execute("DELETE FROM EMP WHERE EMPNO = 13")
    db.execute("UPDATE EMP SET DEPT = 9 WHERE EMPNO < 3")
    db.execute("UPDATE STATISTICS")
    dump = logical_dump(db)
    db.close()
    return path, dump


class TestDatabaseReopen:
    def test_rows_catalog_and_indexes_survive(self, populated_path):
        path, dump = populated_path
        db = Database(path=str(path))
        assert logical_dump(db) == dump
        assert verify_storage(db) == []
        # catalog came back: name resolution and semantic checks work
        table = db.catalog.table("EMP")
        assert [column.name for column in table.columns] == [
            "EMPNO",
            "NAME",
            "DEPT",
        ]
        # indexes came back as live B-trees, usable by the optimizer
        assert db.execute("SELECT NAME FROM EMP WHERE EMPNO = 7").rows == [
            ("EMP7",)
        ]
        assert db.execute(
            "SELECT COUNT(*) FROM EMP WHERE DEPT = 9"
        ).scalar() == 3
        db.close()

    def test_statistics_survive(self, populated_path):
        path, __ = populated_path
        db = Database(path=str(path))
        stats = db.catalog.relation_stats("EMP")
        assert stats is not None
        assert stats.ncard == 29
        db.close()

    def test_programmatic_statistics_survive(self, populated_path):
        """``update_statistics()`` commits, like the SQL form it runs as."""
        path, __ = populated_path
        db = Database(path=str(path))
        db.execute("INSERT INTO EMP VALUES (500, 'NEW', 2)")
        db.update_statistics()
        db.close()
        again = Database(path=str(path))
        assert again.catalog.relation_stats("EMP").ncard == 30
        again.close()

    def test_writes_after_reopen_are_durable(self, populated_path):
        path, __ = populated_path
        db = Database(path=str(path))
        db.execute("INSERT INTO EMP VALUES (999, 'LATE', 1)")
        dump = logical_dump(db)
        db.close()
        again = Database(path=str(path))
        assert logical_dump(again) == dump
        assert again.execute(
            "SELECT NAME FROM EMP WHERE EMPNO = 999"
        ).rows == [("LATE",)]
        again.close()

    def test_reopen_is_idempotent(self, populated_path):
        path, dump = populated_path
        for __ in range(3):
            db = Database(path=str(path))
            assert logical_dump(db) == dump
            db.close()

    def test_empty_database_roundtrip(self, tmp_path):
        path = tmp_path / "db.pages"
        Database(path=str(path)).close()
        db = Database(path=str(path))
        db.execute("CREATE TABLE T (A INTEGER)")
        db.close()
        again = Database(path=str(path))
        assert again.catalog.has_table("T")
        again.close()

    @pytest.mark.parametrize(
        "statement",
        [
            "INSERT INTO T VALUES (9223372036854775808, 'a')",
            "UPDATE T SET A = 9223372036854775808",
            "INSERT INTO T SELECT A * 9223372036854775807, B FROM T",
        ],
        ids=["insert", "update", "insert_select"],
    )
    def test_out_of_range_integer_is_rejected(self, tmp_path, statement):
        """An INTEGER outside the 64-bit page encoding is a typed error and
        the statement leaves nothing behind; the bounds themselves store."""
        path = tmp_path / "db.pages"
        db = Database(path=str(path))
        db.execute("CREATE TABLE T (A INTEGER, B VARCHAR(4))")
        db.execute("INSERT INTO T VALUES (1, 'x'), (2, 'y')")
        with pytest.raises(ReproError):
            db.execute(statement)
        assert db.execute("SELECT COUNT(*) FROM T").scalar() == 2
        db.execute(
            "INSERT INTO T VALUES (-9223372036854775808, 'min'), "
            "(9223372036854775807, 'max')"
        )
        assert db.execute("SELECT MIN(A), MAX(A) FROM T").rows == [
            (-(2**63), 2**63 - 1)
        ]
        dump = logical_dump(db)
        db.close()
        again = Database(path=str(path))
        assert logical_dump(again) == dump
        assert verify_storage(again) == []
        again.close()


class TestGroupCommitCrashRecovery:
    """A crash mid-group-commit, taken while sessions were active, must
    restore to a state containing the whole batch or none of it."""

    def _crash_batch(self, tmp_path, point):
        import threading
        import time

        from repro.errors import SimulatedCrash
        from repro.rss.disk import DiskManager
        from repro.rss.faults import FaultPlan, get_injector

        db = Database(path=str(tmp_path / "gc.pages"))
        db.execute("CREATE TABLE G (A INTEGER, B INTEGER)")
        db.execute("CREATE INDEX GA ON G (A)")
        db.execute("INSERT INTO G VALUES (1, 10), (2, 20)")
        before = logical_dump(db)
        reader = db.session("active-reader")
        assert sorted(reader.execute("SELECT A FROM G").rows) == [(1,), (2,)]

        # Hold the commit lock so three writers batch into one flip, then
        # crash that flip at the requested point.
        coordinator = db._coordinator
        assert coordinator._commit_lock.try_acquire()
        outcomes = [None] * 3

        def submit(i):
            session = db.session(f"gc-writer-{i}")
            try:
                outcomes[i] = session.execute(
                    f"INSERT INTO G VALUES ({100 + i}, {i})"
                )
            except Exception as error:  # noqa: BLE001 — outcome under test
                outcomes[i] = error
            finally:
                session.close()

        threads = [
            threading.Thread(target=submit, args=(i,), daemon=True)
            for i in range(3)
        ]
        get_injector().arm(FaultPlan(point, 1, "crash"))
        try:
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
        assert not any(thread.is_alive() for thread in threads)
        get_injector().disarm()

        # every participant learned the crash outcome — none hung, none
        # was told the statement committed
        assert all(
            isinstance(outcome, SimulatedCrash) for outcome in outcomes
        ), outcomes
        # the active reader still serves consistent pre-crash data
        assert sorted(reader.execute("SELECT A FROM G").rows) == [(1,), (2,)]
        reader.close()

        restored = DiskManager.restore(
            outcomes[0].snapshot, tmp_path / "gc-recovered.pages"
        )
        db.close()
        return before, restored

    @pytest.mark.parametrize(
        "point", ["group-commit.before-flip", "group-commit.after-fsync"]
    )
    def test_crash_restores_all_or_nothing(self, tmp_path, point):
        before, restored = self._crash_batch(tmp_path, point)
        with Database(path=str(restored)) as survivor:
            # storage verifies clean and the logical dump diff is empty:
            # the un-flipped batch left no trace
            assert verify_storage(survivor) == []
            assert logical_dump(survivor) == before
            # the recovered database accepts the batch again in full
            for i in range(3):
                survivor.execute(f"INSERT INTO G VALUES ({100 + i}, {i})")
            assert (
                survivor.execute("SELECT A FROM G WHERE A >= 100").affected_rows
                == 3
            )
