"""Unit tests for slotted pages."""

import pytest

from repro.errors import PageFullError, StorageError
from repro.rss.page import PAGE_SIZE, Page, TupleId


def make_page() -> Page:
    return Page(page_id=1)


class TestPageBasics:
    def test_new_page_is_empty(self):
        page = make_page()
        assert page.slot_count == 0
        assert page.is_empty()
        assert list(page.records()) == []

    def test_insert_and_read(self):
        page = make_page()
        slot = page.insert(b"hello")
        assert page.read(slot) == b"hello"
        assert not page.is_empty()

    def test_insert_returns_sequential_slots(self):
        page = make_page()
        assert page.insert(b"a") == 0
        assert page.insert(b"b") == 1
        assert page.insert(b"c") == 2

    def test_records_iterates_in_slot_order(self):
        page = make_page()
        page.insert(b"a")
        page.insert(b"b")
        assert [record for __, record in page.records()] == [b"a", b"b"]

    def test_insert_marks_dirty(self):
        page = make_page()
        page.dirty = False
        page.insert(b"x")
        assert page.dirty


class TestPageDelete:
    def test_delete_frees_slot(self):
        page = make_page()
        slot = page.insert(b"payload")
        page.delete(slot)
        with pytest.raises(StorageError):
            page.read(slot)

    def test_deleted_slot_is_reused(self):
        page = make_page()
        slot = page.insert(b"old")
        page.insert(b"keep")
        page.delete(slot)
        assert page.insert(b"new") == slot

    def test_double_delete_raises(self):
        page = make_page()
        slot = page.insert(b"x")
        page.delete(slot)
        with pytest.raises(StorageError):
            page.delete(slot)

    def test_delete_unknown_slot_raises(self):
        with pytest.raises(StorageError):
            make_page().delete(3)


class TestPageUpdate:
    def test_in_place_update_same_size(self):
        page = make_page()
        slot = page.insert(b"abcd")
        assert page.update(slot, b"wxyz") is True
        assert page.read(slot) == b"wxyz"

    def test_in_place_update_shrinking(self):
        page = make_page()
        slot = page.insert(b"abcdef")
        assert page.update(slot, b"ab") is True
        assert page.read(slot) == b"ab"

    def test_growing_update_reports_failure(self):
        page = make_page()
        slot = page.insert(b"ab")
        assert page.update(slot, b"abcdef") is False
        assert page.read(slot) == b"ab"  # unchanged

    def test_update_empty_slot_raises(self):
        page = make_page()
        slot = page.insert(b"x")
        page.delete(slot)
        with pytest.raises(StorageError):
            page.update(slot, b"y")


class TestSlotBounds:
    def test_update_past_the_directory_raises_and_writes_nothing(self):
        # On a full page the bytes "below" the directory are record data; an
        # unchecked slot number would read a bogus entry out of them.
        page = make_page()
        while page.can_fit(100):
            page.insert(b"x" * 100)
        before = bytes(page.data)
        with pytest.raises(StorageError):
            page.update(page.slot_count + 50, b"ZZ")
        assert bytes(page.data) == before

    @pytest.mark.parametrize("operation", ["read", "delete", "update"])
    def test_negative_slot_raises_storage_error(self, operation):
        page = make_page()
        page.insert(b"x")
        args = (-1, b"y") if operation == "update" else (-1,)
        with pytest.raises(StorageError):
            getattr(page, operation)(*args)


class TestPageCapacity:
    def test_page_fills_up(self):
        page = make_page()
        record = b"x" * 100
        count = 0
        while page.can_fit(len(record)):
            page.insert(record)
            count += 1
        # 4096 bytes, 4-byte header, 104 bytes per record+slot.
        assert count == (PAGE_SIZE - 4) // 104
        with pytest.raises(PageFullError):
            page.insert(record)

    def test_free_space_decreases(self):
        page = make_page()
        before = page.free_space()
        page.insert(b"12345678")
        assert page.free_space() == before - 8 - 4  # record + slot entry

    def test_page_must_be_exact_size(self):
        with pytest.raises(StorageError):
            Page(1, bytearray(100))


class TestTupleId:
    def test_fields(self):
        tid = TupleId(7, 3)
        assert tid.page_id == 7
        assert tid.slot == 3

    def test_str(self):
        assert str(TupleId(7, 3)) == "(7,3)"

    def test_equality_and_hash(self):
        assert TupleId(1, 2) == TupleId(1, 2)
        assert len({TupleId(1, 2), TupleId(1, 2), TupleId(1, 3)}) == 2
