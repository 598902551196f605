"""Temp lists write and read a page at a time — differentially checked.

:class:`~repro.engine.temp.TempList` fills each page with one
:meth:`Page.fill` and decodes a page at a time (one ``iter_unpack`` for a
page of full-width NULL-free records, the compiled :class:`DecodePlan`
otherwise).  The differential tests pin both halves to the per-record
references: the bytes and placement state of ``Page.insert`` one record
at a time, and the interpretive ``decode_tuple``.  The durability tests
pin the other contract: temp pages are scratch — they never reach the
backing file.
"""

import pytest

from repro.database import Database
from repro.datatypes import FLOAT, INTEGER, varchar
from repro.engine.temp import TempList
from repro.errors import PageFullError, StorageError
from repro.rss.page import USABLE_PAGE_BYTES, Page
from repro.rss.tuples import DecodePlan, decode_tuple, encode_tuple


def placement(page: Page) -> tuple:
    """A page's bytes and its whole placement state."""
    return (
        bytes(page.data),
        page.slot_count,
        page.free_pointer,
        page._first_empty,
        page._live_count,
        page._live_bytes,
        page.dirty,
    )


def inserted_pages(records: list[bytes]) -> list[Page]:
    """The reference: one ``Page.insert`` per record, a fresh page when a
    record does not fit the last one."""
    pages: list[Page] = []
    for record in records:
        if not pages or not pages[-1].can_fit(len(record)):
            pages.append(Page(len(pages)))
        pages[-1].insert(record)
    return pages


FIXED = [INTEGER, FLOAT, INTEGER]
#: One record of this schema exactly fills an empty page.
WHOLE_PAGE = [varchar(USABLE_PAGE_BYTES - 5)]


def fixed_rows(count: int) -> list[tuple]:
    return [(i, i / 4, -i) for i in range(count)]


def null_rows(count: int) -> list[tuple]:
    return [
        (i, None if i % 3 else i / 2, None if i % 5 else i) for i in range(count)
    ]


def varchar_rows(count: int) -> list[tuple]:
    return [
        (i, "x" * (i % 40), None if i % 7 == 0 else f"v{i}") for i in range(count)
    ]


BATCHES = {
    "fixed": (FIXED, fixed_rows(700)),
    "nulls": (FIXED, null_rows(700)),
    "varchar": ([INTEGER, varchar(40), varchar(8)], varchar_rows(500)),
    "whole-page": (WHOLE_PAGE, [("a" * (USABLE_PAGE_BYTES - 5),), ("b",)]),
}


class TestPageFill:
    @pytest.mark.parametrize("name", sorted(BATCHES))
    def test_fill_equals_per_record_inserts(self, name):
        datatypes, rows = BATCHES[name]
        records = [encode_tuple(0, values, datatypes) for values in rows]
        for reference in inserted_pages(records):
            filled = Page(reference.page_id)
            filled.fill(
                [reference.read(slot) for slot in range(reference.slot_count)]
            )
            assert placement(filled) == placement(reference)

    def test_record_that_exactly_fills_the_page(self):
        record = encode_tuple(0, ("z" * (USABLE_PAGE_BYTES - 5),), WHOLE_PAGE)
        assert len(record) == USABLE_PAGE_BYTES
        reference = Page(1)
        reference.insert(record)
        filled = Page(1)
        filled.fill([record])
        assert placement(filled) == placement(reference)
        assert filled.free_space() == 0

    def test_fill_appends_after_earlier_fills(self):
        records = [encode_tuple(0, values, FIXED) for values in null_rows(60)]
        reference = Page(3)
        for record in records:
            reference.insert(record)
        filled = Page(3)
        filled.fill(records[:25])
        filled.fill([])
        filled.fill(records[25:])
        assert placement(filled) == placement(reference)

    def test_fill_refuses_what_insert_would_place_elsewhere(self):
        records = [encode_tuple(0, values, FIXED) for values in fixed_rows(200)]
        with pytest.raises(PageFullError):
            Page(1).fill(records)
        holed = Page(2)
        holed.fill(records[:3])
        holed.delete(1)
        with pytest.raises(StorageError):
            holed.fill(records[3:4])
        with pytest.raises(StorageError):
            Page(3).fill([b""])


class TestTempListPages:
    @pytest.mark.parametrize("name", sorted(BATCHES))
    def test_pages_equal_per_record_inserts(self, name):
        """Page count, bytes, placement state and counters of a temp list
        equal a per-record build; the read-back equals ``decode_tuple``."""
        datatypes, rows = BATCHES[name]
        storage = Database(buffer_pages=4).storage
        temp = TempList(storage, datatypes)
        before = storage.counters.snapshot()
        temp.extend(rows[:1])
        temp.extend(iter(rows[1:]))
        written = storage.counters.snapshot()
        scanned = list(temp.scan())
        read = storage.counters.snapshot()

        records = [encode_tuple(0, values, datatypes) for values in rows]
        reference = inserted_pages(records)
        assert temp.page_count() == len(reference)
        for page_id, expected in zip(temp._page_ids, reference):
            assert placement(storage.store.get(page_id)) == placement(expected)
        assert scanned == [decode_tuple(record, datatypes) for record in records]
        assert scanned == rows
        assert written.rsi_calls - before.rsi_calls == len(rows)
        assert written.page_fetches - before.page_fetches == len(reference)
        assert read.rsi_calls - written.rsi_calls == len(rows)
        assert [len(page) for page in temp.pages()] == [
            expected.slot_count for expected in reference
        ]
        temp.drop()

    def test_interleaved_writers_fetch_new_pages_at_the_same_record(self):
        """Two lists written in turns (a merge output beside its runs)
        fetch each new page when its first record arrives, as per-record
        inserts would."""
        storage = Database(buffer_pages=2).storage
        lists = [TempList(storage, FIXED), TempList(storage, FIXED)]
        fetched: list[int] = []
        fetch = storage.buffer.fetch

        def recording_fetch(page_id):
            fetched.append(page_id)
            return fetch(page_id)

        storage.buffer.fetch = recording_fetch
        rows = null_rows(900)
        expected = []
        references: list[list[Page]] = [[], []]
        for i, values in enumerate(rows):
            which = (i // 7) % 2
            record = encode_tuple(0, values, FIXED)
            own = references[which]
            if not own or not own[-1].can_fit(len(record)):
                own.append(Page(0))
                expected.append((which, len(own) - 1))
            own[-1].insert(record)
            lists[which].append(values)
        storage.buffer.fetch = fetch
        assert fetched == [lists[which]._page_ids[k] for which, k in expected]
        for temp in lists:
            assert list(temp.scan())
            temp.drop()


class TestDecodeDifferential:
    SCHEMA = [INTEGER, varchar(12), INTEGER, varchar(8), INTEGER]

    def rows(self):
        return [
            (i, f"NAME{i}", i % 3, f"DEPT{i % 2}", i) for i in range(25)
        ] + [
            (99, None, None, None, 7),
            (100, "ONLY-E", 1, None, None),
        ]

    def test_scan_matches_decode_tuple_reference(self):
        """DecodePlan in the scan and decode_tuple agree on every record."""
        db = Database()
        temp = TempList(db.storage, self.SCHEMA)
        temp.extend(self.rows())

        scanned = list(temp.scan())
        reference = []
        for page_id in temp._page_ids:
            page = db.storage.store.get(page_id)
            for __, record in page.records():
                reference.append(decode_tuple(record, self.SCHEMA))
        assert scanned == reference == self.rows()
        assert len(scanned) == 27
        temp.drop()

    def test_plan_equals_reference_on_raw_records(self):
        datatypes = [INTEGER, varchar(6), INTEGER, varchar(3)]
        plan = DecodePlan(datatypes)
        for values in [
            (1, "ABC", 2, "XY"),
            (None, None, None, None),
            (0, "", -5, "Z"),
            (2**31 - 1, "SIXSIX", None, ""),
        ]:
            record = encode_tuple(17, values, datatypes)
            assert plan.decode(record) == decode_tuple(record, datatypes)


class TestTempPagesStayOffDisk:
    def test_sort_query_leaves_backing_file_unchanged(self, tmp_path):
        """ORDER BY materializes temp lists; none of it is durable state."""
        db = Database(path=str(tmp_path / "db.pages"))
        db.execute("CREATE TABLE T (A INTEGER, B VARCHAR(10))")
        for i in range(40):
            db.execute(f"INSERT INTO T VALUES ({40 - i}, 'R{i}')")
        durable_before = db.storage.store.disk.page_ids()

        result = db.execute("SELECT A FROM T ORDER BY A")
        assert [row[0] for row in result.rows] == list(range(1, 41))
        assert db.storage.store.disk.page_ids() == durable_before
        db.close()

        # and a reopen sees only the relation, not sort scratch
        again = Database(path=str(tmp_path / "db.pages"))
        assert again.execute("SELECT COUNT(*) FROM T").scalar() == 40
        again.close()

    def test_temp_pages_not_tracked_by_transactions(self):
        db = Database()
        db.execute("CREATE TABLE T (A INTEGER)")
        temp = TempList(db.storage, [INTEGER])
        with db.storage.atomic():
            temp.extend([(i,) for i in range(5)])
        # rollback machinery never saw the temp pages: they are all live
        assert list(temp.scan())
        temp.drop()
