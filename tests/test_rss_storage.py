"""Unit tests for segments, the buffer pool, and the storage engine facade."""

import pytest

from repro.catalog import Catalog
from repro.datatypes import INTEGER, varchar
from repro.errors import IntegrityError, StorageError, TupleTooLargeError
from repro.rss import StorageEngine
from repro.rss.buffer import BufferPool
from repro.rss.counters import CostCounters
from repro.rss.page import USABLE_PAGE_BYTES
from repro.rss.pagestore import PageStore
from repro.rss.sargs import CompareOp, SargPredicate, Sargs
from repro.rss.segment import Segment


# ---------------------------------------------------------------------------
# buffer pool
# ---------------------------------------------------------------------------


class TestBufferPool:
    def make(self, capacity=3):
        store = PageStore()
        counters = CostCounters()
        pool = BufferPool(store, counters, capacity)
        pages = [store.allocate_data_page() for __ in range(6)]
        return store, counters, pool, pages

    def test_miss_counts_fetch(self):
        __, counters, pool, pages = self.make()
        pool.fetch(pages[0].page_id)
        assert counters.page_fetches == 1

    def test_hit_is_free(self):
        __, counters, pool, pages = self.make()
        pool.fetch(pages[0].page_id)
        pool.fetch(pages[0].page_id)
        assert counters.page_fetches == 1
        assert counters.buffer_hits == 1

    def test_lru_eviction(self):
        __, counters, pool, pages = self.make(capacity=2)
        pool.fetch(pages[0].page_id)
        pool.fetch(pages[1].page_id)
        pool.fetch(pages[2].page_id)  # evicts page 0
        pool.fetch(pages[0].page_id)  # miss again
        assert counters.page_fetches == 4

    def test_recency_updates_on_hit(self):
        __, counters, pool, pages = self.make(capacity=2)
        pool.fetch(pages[0].page_id)
        pool.fetch(pages[1].page_id)
        pool.fetch(pages[0].page_id)  # page 0 most recent
        pool.fetch(pages[2].page_id)  # evicts page 1
        pool.fetch(pages[0].page_id)  # still resident
        assert counters.page_fetches == 3

    def test_clear(self):
        __, counters, pool, pages = self.make()
        pool.fetch(pages[0].page_id)
        pool.clear()
        pool.fetch(pages[0].page_id)
        assert counters.page_fetches == 2

    def test_capacity_validation(self):
        store = PageStore()
        with pytest.raises(ValueError):
            BufferPool(store, CostCounters(), 0)

    def test_unknown_page(self):
        __, ___, pool, ____ = self.make()
        with pytest.raises(StorageError):
            pool.fetch(999)


# ---------------------------------------------------------------------------
# segments
# ---------------------------------------------------------------------------


def make_segment():
    store = PageStore()
    counters = CostCounters()
    buffer = BufferPool(store, counters, 64)
    return Segment("S", store, buffer), counters


class TestSegment:
    def test_insert_read_roundtrip(self):
        segment, __ = make_segment()
        tid = segment.insert(b"\x00\x01payload")
        assert segment.read(tid) == b"\x00\x01payload"

    def test_insert_allocates_pages(self):
        segment, __ = make_segment()
        for __ in range(100):
            segment.insert(b"x" * 200)
        assert segment.page_count() > 1

    def test_scan_records_sees_everything(self):
        segment, __ = make_segment()
        records = [bytes([0, i]) + b"r" for i in range(50)]
        for record in records:
            segment.insert(record)
        assert [record for __, record in segment.scan_records()] == records

    def test_delete(self):
        segment, __ = make_segment()
        tid = segment.insert(b"\x00\x01x")
        segment.delete(tid)
        assert list(segment.scan_records()) == []

    def test_update_in_place_keeps_tid(self):
        segment, __ = make_segment()
        tid = segment.insert(b"\x00\x01abcd")
        new_tid = segment.update(tid, b"\x00\x01wxyz")
        assert new_tid == tid

    def test_update_growing_moves(self):
        segment, __ = make_segment()
        tid = segment.insert(b"\x00\x01ab")
        filler = [segment.insert(b"\x00\x02" + b"f" * 64) for __ in range(5)]
        new_tid = segment.update(tid, b"\x00\x01" + b"z" * 300)
        assert segment.read(new_tid).endswith(b"z" * 300)

    def test_too_large_record(self):
        segment, __ = make_segment()
        with pytest.raises(TupleTooLargeError):
            segment.insert(b"x" * (USABLE_PAGE_BYTES + 1))

    def test_space_reuse_after_delete(self):
        segment, __ = make_segment()
        tids = [segment.insert(b"\x00\x01" + b"x" * 500) for __ in range(20)]
        pages_before = segment.page_count()
        for tid in tids:
            segment.delete(tid)
        for __ in range(20):
            segment.insert(b"\x00\x01" + b"y" * 500)
        assert segment.page_count() == pages_before

    def test_non_empty_pages(self):
        segment, __ = make_segment()
        assert segment.non_empty_pages() == 0
        tid = segment.insert(b"\x00\x01x")
        assert segment.non_empty_pages() == 1
        segment.delete(tid)
        assert segment.non_empty_pages() == 0


# ---------------------------------------------------------------------------
# storage engine facade
# ---------------------------------------------------------------------------


def make_engine():
    catalog = Catalog()
    table = catalog.create_table(
        "T", [("ID", INTEGER), ("NAME", varchar(16)), ("GRP", INTEGER)]
    )
    engine = StorageEngine()
    engine.ensure_segment(table.segment_name)
    return catalog, table, engine


class TestStorageEngine:
    def test_insert_and_read(self):
        catalog, table, engine = make_engine()
        tid = engine.insert(table, [], (1, "one", 10))
        assert engine.read_values(table, tid) == (1, "one", 10)

    def test_index_maintained_on_insert(self):
        catalog, table, engine = make_engine()
        index = catalog.create_index("T_GRP", "T", ["GRP"])
        engine.create_index(index, table)
        engine.insert(table, [index], (1, "a", 5))
        engine.insert(table, [index], (2, "b", 5))
        rows = list(engine.index_scan(index, table, low=(5,), high=(5,)))
        assert len(rows) == 2

    def test_unique_index_rejects_duplicates(self):
        catalog, table, engine = make_engine()
        index = catalog.create_index("T_ID", "T", ["ID"], unique=True)
        engine.create_index(index, table)
        engine.insert(table, [index], (1, "a", 5))
        with pytest.raises(IntegrityError):
            engine.insert(table, [index], (1, "b", 6))

    def test_unique_index_allows_nulls(self):
        catalog, table, engine = make_engine()
        index = catalog.create_index("T_ID", "T", ["ID"], unique=True)
        engine.create_index(index, table)
        engine.insert(table, [index], (None, "a", 1))
        engine.insert(table, [index], (None, "b", 2))  # no error

    def test_build_unique_index_over_duplicates_fails(self):
        catalog, table, engine = make_engine()
        engine.insert(table, [], (1, "a", 5))
        engine.insert(table, [], (1, "b", 6))
        index = catalog.create_index("T_ID", "T", ["ID"], unique=True)
        with pytest.raises(IntegrityError):
            engine.create_index(index, table)

    def test_update_maintains_indexes(self):
        catalog, table, engine = make_engine()
        index = catalog.create_index("T_GRP", "T", ["GRP"])
        engine.create_index(index, table)
        tid = engine.insert(table, [index], (1, "a", 5))
        engine.update(table, [index], tid, (1, "a", 5), (1, "a", 9))
        assert list(engine.index_scan(index, table, low=(5,), high=(5,))) == []
        assert len(list(engine.index_scan(index, table, low=(9,), high=(9,)))) == 1

    def test_delete_maintains_indexes(self):
        catalog, table, engine = make_engine()
        index = catalog.create_index("T_GRP", "T", ["GRP"])
        engine.create_index(index, table)
        tid = engine.insert(table, [index], (1, "a", 5))
        engine.delete(table, [index], tid, (1, "a", 5))
        assert list(engine.index_scan(index, table, low=(5,), high=(5,))) == []

    def test_segment_scan_with_sargs(self):
        catalog, table, engine = make_engine()
        for i in range(20):
            engine.insert(table, [], (i, f"n{i}", i % 4))
        sargs = Sargs.conjunction([SargPredicate(2, CompareOp.EQ, 1)])
        rows = list(engine.segment_scan(table, sargs))
        assert len(rows) == 5
        assert all(values[2] == 1 for __, values in rows)

    def test_sarg_rejections_do_not_count_rsi(self):
        catalog, table, engine = make_engine()
        for i in range(20):
            engine.insert(table, [], (i, f"n{i}", i % 4))
        engine.counters.reset()
        sargs = Sargs.conjunction([SargPredicate(2, CompareOp.EQ, 1)])
        list(engine.segment_scan(table, sargs))
        assert engine.counters.rsi_calls == 5

    def test_suppress_counting(self):
        catalog, table, engine = make_engine()
        engine.insert(table, [], (1, "a", 1))
        engine.counters.reset()
        with engine.suppress_counting():
            list(engine.segment_scan(table))
        assert engine.counters.page_fetches == 0
        assert engine.counters.rsi_calls == 0

    def test_cluster_table_orders_pages(self):
        catalog, table, engine = make_engine()
        import random

        rng = random.Random(1)
        values = [(i, f"n{i}", rng.randrange(100)) for i in range(500)]
        for row in values:
            engine.insert(table, [], row)
        index = catalog.create_index("T_GRP", "T", ["GRP"], clustered=True)
        engine.create_index(index, table)
        engine.cluster_table(table, index, [index])
        # After clustering, a segment scan returns tuples in GRP order.
        scanned = [vals[2] for __, vals in engine.segment_scan(table)]
        assert scanned == sorted(scanned)
        # And the index agrees with the data.
        via_index = [vals[2] for __, vals in engine.index_scan(index, table)]
        assert via_index == sorted(scanned)
