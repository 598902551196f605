"""Segments: logical units of data pages.

A segment is an ordered collection of data pages.  Segments may contain one
or more relations, and tuples of different relations may share a page; every
record is tagged with its relation id (Section 3 of the paper).  ``P(T)`` —
the fraction of a segment's non-empty pages holding tuples of relation T —
is therefore a meaningful statistic, and segment scans must touch *all*
non-empty pages regardless of which relation they want.
"""

from __future__ import annotations

from typing import Iterator

from ..errors import StorageError, TupleTooLargeError
from .buffer import BufferPool
from .faults import get_injector, register_point
from .page import USABLE_PAGE_BYTES, Page, TupleId
from .pagestore import PageStore

FP_SEGMENT_INSERT = register_point(
    "segment.insert", "entering a segment record insert"
)
FP_SEGMENT_DELETE = register_point(
    "segment.delete", "entering a segment record delete"
)
FP_SEGMENT_UPDATE = register_point(
    "segment.update", "entering a segment record update"
)


class Segment:
    """An ordered set of slotted data pages shared by one or more relations."""

    def __init__(self, name: str, store: PageStore, buffer: BufferPool):
        self.name = name
        self._store = store
        self._buffer = buffer
        # Scans and ScanSnapshot freeze their view of it (a tuple copy).
        self.page_ids: list[int] = []

    # -- modification ------------------------------------------------------

    def insert(self, record: bytes, append_only: bool = False) -> TupleId:
        """Append a record, allocating a new page when the last one is full.

        The append-to-last-page policy means a relation loaded in sorted key
        order ends up physically clustered on that key, which is how the
        reproduction realizes the paper's "clustered index" property.
        ``append_only`` skips the space-reuse pass over earlier pages so a
        reorganization load preserves strict physical order.
        """
        if len(record) > USABLE_PAGE_BYTES:
            raise TupleTooLargeError(
                f"record of {len(record)} bytes exceeds page capacity"
            )
        get_injector().trip(FP_SEGMENT_INSERT)
        if self.page_ids:
            page = self._fetch(self.page_ids[-1])
            if page.can_fit(len(record)):
                page = self._store.prepare_write(page.page_id)
                slot = page.insert(record)
                return TupleId(page.page_id, slot)
        if not append_only:
            # Try to reuse space on earlier pages before growing the segment.
            for page_id in self.page_ids[:-1]:
                candidate = self._store.get(page_id)
                if isinstance(candidate, Page) and candidate.can_fit(len(record)):
                    self._fetch(page_id)
                    page = self._store.prepare_write(page_id)
                    slot = page.insert(record)
                    return TupleId(page_id, slot)
        page = self._store.allocate_data_page()
        self.page_ids.append(page.page_id)
        self._buffer.fetch(page.page_id)
        slot = page.insert(record)
        return TupleId(page.page_id, slot)

    def read(self, tid: TupleId) -> bytes:
        """The record bytes at a TID (through the buffer pool)."""
        return self._fetch(tid.page_id).read(tid.slot)

    def delete(self, tid: TupleId) -> None:
        """Free the slot at a TID."""
        get_injector().trip(FP_SEGMENT_DELETE)
        self._fetch(tid.page_id)
        page = self._store.prepare_write(tid.page_id)
        page.delete(tid.slot)

    def update(self, tid: TupleId, record: bytes) -> TupleId:
        """Overwrite in place when possible, else move (new TID)."""
        get_injector().trip(FP_SEGMENT_UPDATE)
        self._fetch(tid.page_id)
        page = self._store.prepare_write(tid.page_id)
        if page.update(tid.slot, record):
            return tid
        page.delete(tid.slot)
        return self.insert(record)

    # -- scanning ----------------------------------------------------------

    def scan_records(self) -> Iterator[tuple[TupleId, bytes]]:
        """Yield every record in the segment, page by page, through the buffer.

        This is the physical underpinning of a segment scan: all non-empty
        pages are touched once each, in page order.
        """
        for page_id in list(self.page_ids):
            page = self._fetch(page_id)
            for slot, record in page.records():
                yield TupleId(page_id, slot), record

    def release_empty_pages(self) -> int:
        """Free pages holding no records; returns how many were released.

        Used by table reorganization (clustering): after the old copies are
        deleted, releasing the emptied pages lets the sorted reload lay its
        tuples down on fresh, physically sequential pages.
        """
        released = 0
        kept: list[int] = []
        for page_id in self.page_ids:
            page = self._store.get(page_id)
            if isinstance(page, Page) and page.is_empty():
                self._buffer.invalidate(page_id)
                self._store.free(page_id)
                released += 1
            else:
                kept.append(page_id)
        self.page_ids = kept
        return released

    # -- statistics helpers --------------------------------------------------

    def non_empty_pages(self) -> int:
        """Number of pages currently holding at least one record.

        Used to compute ``P(T)``; reads pages directly (statistics
        collection is catalog work, not query work, so it is uncounted).
        """
        count = 0
        for page_id in self.page_ids:
            page = self._store.get(page_id)
            if isinstance(page, Page) and not page.is_empty():
                count += 1
        return count

    def page_count(self) -> int:
        """Number of pages currently allocated."""
        return len(self.page_ids)

    def _fetch(self, page_id: int) -> Page:
        page = self._buffer.fetch(page_id)
        if not isinstance(page, Page):
            raise StorageError(f"page {page_id} is not a data page")
        return page
