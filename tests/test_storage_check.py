"""The invariant checker must *catch* corruption, not just bless health.

Each test seeds one specific defect into an otherwise healthy database and
asserts ``verify_storage`` reports it under the right rule — a checker
that returns ``[]`` on a broken store is worse than none.
"""

import pytest

from repro.analysis.storage_check import logical_dump, verify_storage
from repro.database import Database
from repro.rss.btree import TupleId, orderable_key


def healthy_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE T (A INTEGER, B VARCHAR(10))")
    db.execute("CREATE UNIQUE INDEX TA ON T (A)")
    db.execute("CREATE INDEX TB ON T (B)")
    for i in range(20):
        db.execute(f"INSERT INTO T VALUES ({i}, 'V{i % 5}')")
    assert verify_storage(db) == []
    return db


def rules(violations):
    return {violation.rule for violation in violations}


def first_leaf(btree):
    return btree._leftmost_leaf_uncounted()


class TestIndexCorruption:
    def test_removed_leaf_entry_is_unindexed_tuple(self):
        db = healthy_db()
        leaf = first_leaf(db.storage.btree("TA"))
        del leaf.entries[0]
        assert "unindexed-tuple" in rules(verify_storage(db))

    def test_bogus_leaf_entry_is_dangling(self):
        db = healthy_db()
        leaf = first_leaf(db.storage.btree("TA"))
        key = (777,)
        leaf.entries.append((orderable_key(key), key, TupleId(999, 0)))
        found = rules(verify_storage(db))
        assert "dangling-entry" in found
        assert "index-count" in found  # entry_count no longer matches

    def test_out_of_order_keys_detected(self):
        db = healthy_db()
        leaf = first_leaf(db.storage.btree("TA"))
        leaf.entries.reverse()
        assert "index-disorder" in rules(verify_storage(db))

    def test_corrupted_entry_count_detected(self):
        db = healthy_db()
        db.storage.btree("TA")._entry_count += 5
        assert rules(verify_storage(db)) == {"index-count"}

    def test_duplicate_key_in_unique_index_detected(self):
        db = healthy_db()
        btree = db.storage.btree("TA")
        leaf = first_leaf(btree)
        okey, key, tid = leaf.entries[0]
        # point a second entry for the same unique key at a real tuple
        other_tid = leaf.entries[1][2]
        leaf.entries.insert(1, (okey, key, other_tid))
        btree._entry_count += 1
        assert "unique-violated" in rules(verify_storage(db))

    def test_missing_btree_detected(self):
        db = healthy_db()
        del db.storage._indexes["TA"]
        assert "index-missing" in rules(verify_storage(db))


class TestPageCorruption:
    def test_orphan_page_detected(self):
        db = healthy_db()
        db.storage.store.allocate_data_page()
        assert rules(verify_storage(db)) == {"orphan-page"}

    def test_segment_listing_missing_page_detected(self):
        db = healthy_db()
        segment = next(iter(db.storage._segments.values()))
        segment.page_ids.append(12345)
        assert "segment-page-missing" in rules(verify_storage(db))

    def test_duplicate_segment_page_detected(self):
        db = healthy_db()
        segment = next(iter(db.storage._segments.values()))
        segment.page_ids.append(segment.page_ids[0])
        assert "segment-page-duplicate" in rules(verify_storage(db))

    @pytest.mark.parametrize("field", ["_live_count", "_live_bytes", "_first_empty"])
    def test_placement_state_drift_detected(self, field):
        db = healthy_db()
        db.execute("DELETE FROM T WHERE A = 3")
        assert verify_storage(db) == []
        segment = next(iter(db.storage._segments.values()))
        page = db.storage.store.get(segment.page_ids[0])
        # A count or byte total off by one, or a hint that skipped the slot
        # the DELETE freed: placement would silently diverge from the bytes.
        setattr(page, field, getattr(page, field) + 1)
        assert rules(verify_storage(db)) == {"page-state-drift"}

    def test_garbage_record_bytes_detected(self):
        db = healthy_db()
        segment = next(iter(db.storage._segments.values()))
        page = db.storage.store.get(segment.page_ids[0])
        page.data[40:48] = b"\xff" * 8  # stomp inside the first record
        found = rules(verify_storage(db))
        assert found & {
            "undecodable-record",
            "unknown-relation",
            "dangling-entry",
            "unindexed-tuple",
        }


class TestDiskCorruption:
    def test_flipped_disk_bytes_detected(self, tmp_path):
        db = Database(path=str(tmp_path / "db.pages"))
        db.execute("CREATE TABLE T (A INTEGER)")
        for i in range(10):
            db.execute(f"INSERT INTO T VALUES ({i})")
        assert verify_storage(db) == []
        # corrupt a committed frame behind the live engine's back
        disk = db.storage.store.disk
        entry = next(iter(disk._entries.values()))
        with open(tmp_path / "db.pages", "r+b") as handle:
            handle.seek(entry.frame * 4096 + 8)
            handle.write(b"\xee" * 4)
        assert "disk-audit" in rules(verify_storage(db))
        db.close()

    def test_live_only_page_detected(self, tmp_path):
        db = Database(path=str(tmp_path / "db.pages"))
        db.execute("CREATE TABLE T (A INTEGER)")
        db.execute("INSERT INTO T VALUES (1)")
        # a page materialized outside any transaction never hits disk
        db.storage.store.allocate_data_page()
        found = rules(verify_storage(db))
        assert "disk-missing-page" in found
        db.close()


class TestLogicalDump:
    def test_dump_is_order_insensitive(self):
        first = Database()
        second = Database()
        first.execute("CREATE TABLE T (A INTEGER)")
        second.execute("CREATE TABLE T (A INTEGER)")
        for i in range(6):
            first.execute(f"INSERT INTO T VALUES ({i})")
            second.execute(f"INSERT INTO T VALUES ({5 - i})")
        assert logical_dump(first) == logical_dump(second)

    def test_dump_does_not_touch_counters(self):
        db = healthy_db()
        before = db.storage.counters.snapshot()
        logical_dump(db)
        verify_storage(db)
        assert db.storage.counters.snapshot() == before
