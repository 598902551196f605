"""Slotted 4 KiB pages and tuple identifiers.

Layout of a data page (all integers big-endian):

- bytes 0..2:   ``u16`` number of slots ever allocated
- bytes 2..4:   ``u16`` free-space pointer (offset where the next record
  would be written)
- records grow upward from byte 4; the slot directory grows downward from
  the end of the page, four bytes per slot (``u16`` record offset, ``u16``
  record length).  A slot with length 0 is empty (deleted) and may be reused.

A :class:`TupleId` (TID) is the stable address of a record: (page id, slot).
As in System R, updating a tuple in place keeps its TID; an update that no
longer fits becomes a delete + insert with a new TID.
"""

from __future__ import annotations

import struct
from typing import Iterator, NamedTuple

from ..errors import PageFullError, RecordTooLargeError, StorageError

PAGE_SIZE = 4096
_HEADER = struct.Struct(">HH")
_SLOT = struct.Struct(">HH")
_HEADER_SIZE = _HEADER.size
_SLOT_SIZE = _SLOT.size

#: Largest record an *empty* page can hold (header plus one slot removed).
#: Anything bigger can never be placed, no matter how many fresh pages a
#: caller retries on.
USABLE_PAGE_BYTES = PAGE_SIZE - _HEADER_SIZE - _SLOT_SIZE


class TupleId(NamedTuple):
    """Stable physical address of a stored tuple."""

    page_id: int
    slot: int

    def __str__(self) -> str:
        return f"({self.page_id},{self.slot})"


class Page:
    """One slotted data page.

    The page owns a ``bytearray`` of exactly :data:`PAGE_SIZE` bytes; all
    record operations manipulate those bytes directly.
    """

    def __init__(self, page_id: int, data: bytearray | None = None):
        self.page_id = page_id
        if data is None:
            # Page bytes mutate only on the driving thread (DML drains all
            # workers before any write); scan workers only read them.
            self.data = bytearray(PAGE_SIZE)
            self._set_header(0, _HEADER_SIZE)
        else:
            if len(data) != PAGE_SIZE:
                raise StorageError(f"page must be {PAGE_SIZE} bytes")
            self.data = data
        self.dirty = False

    # -- header helpers ---------------------------------------------------

    def _header(self) -> tuple[int, int]:
        return _HEADER.unpack_from(self.data, 0)

    def _set_header(self, slot_count: int, free_ptr: int) -> None:
        _HEADER.pack_into(self.data, 0, slot_count, free_ptr)

    @property
    def slot_count(self) -> int:
        """Slots ever allocated on this page (including empty ones)."""
        return self._header()[0]

    def _slot(self, slot: int) -> tuple[int, int]:
        position = PAGE_SIZE - _SLOT_SIZE * (slot + 1)
        return _SLOT.unpack_from(self.data, position)

    def _set_slot(self, slot: int, offset: int, length: int) -> None:
        position = PAGE_SIZE - _SLOT_SIZE * (slot + 1)
        _SLOT.pack_into(self.data, position, offset, length)

    # -- space accounting -------------------------------------------------

    def free_space(self) -> int:
        """Contiguous bytes available for a new record plus its slot."""
        slot_count, free_ptr = self._header()
        directory_start = PAGE_SIZE - _SLOT_SIZE * slot_count
        return max(0, directory_start - free_ptr)

    def dead_space(self) -> int:
        """Bytes occupied by deleted records, reclaimable by compaction."""
        __, free_ptr = self._header()
        live = sum(length for ___, length in self._live_slots())
        return free_ptr - _HEADER_SIZE - live

    def _live_slots(self):
        for slot in range(self.slot_count):
            offset, length = self._slot(slot)
            if length:
                yield slot, length

    def compact(self) -> None:
        """Rewrite live records contiguously, reclaiming dead space."""
        records = [(slot, self.read(slot)) for slot, __ in self._live_slots()]
        write_ptr = _HEADER_SIZE
        for slot, record in records:
            self.data[write_ptr : write_ptr + len(record)] = record
            self._set_slot(slot, write_ptr, len(record))
            write_ptr += len(record)
        self._set_header(self.slot_count, write_ptr)
        self.dirty = True

    def can_fit(self, record_size: int) -> bool:
        """Whether a record of ``record_size`` bytes fits on this page.

        Counts reclaimable dead space — :meth:`insert` compacts on demand.
        Reusing an empty slot needs only the record bytes; otherwise a new
        slot directory entry is also required.
        """
        needed = record_size
        if self._find_empty_slot() is None:
            needed += _SLOT_SIZE
        return self.free_space() + self.dead_space() >= needed

    def _find_empty_slot(self) -> int | None:
        for slot in range(self.slot_count):
            if self._slot(slot)[1] == 0:
                return slot
        return None

    # -- record operations --------------------------------------------------

    def insert(self, record: bytes) -> int:
        """Store a record, returning the slot number it was placed in.

        Raises :class:`RecordTooLargeError` when the record could not fit
        even on an empty page (so retrying on a fresh page is futile) and
        :class:`PageFullError` when only *this* page lacks the space.
        """
        if len(record) > USABLE_PAGE_BYTES:
            raise RecordTooLargeError(len(record), USABLE_PAGE_BYTES)
        slot = self._find_empty_slot()
        needed = len(record) + (0 if slot is not None else _SLOT_SIZE)
        if self.free_space() < needed:
            if self.free_space() + self.dead_space() < needed:
                raise PageFullError(
                    f"page {self.page_id}: need {needed} bytes, "
                    f"have {self.free_space()}"
                )
            self.compact()
        slot_count, free_ptr = self._header()
        if slot is None:
            slot = slot_count
            slot_count += 1
        self.data[free_ptr : free_ptr + len(record)] = record
        self._set_slot(slot, free_ptr, len(record))
        self._set_header(slot_count, free_ptr + len(record))
        self.dirty = True
        return slot

    def read(self, slot: int) -> bytes:
        """Return the record bytes at ``slot``; raises on empty slots."""
        if slot >= self.slot_count:
            raise StorageError(f"page {self.page_id}: no slot {slot}")
        offset, length = self._slot(slot)
        if length == 0:
            raise StorageError(f"page {self.page_id}: slot {slot} is empty")
        return bytes(self.data[offset : offset + length])

    def delete(self, slot: int) -> None:
        """Free a slot.  Record bytes become dead space until compaction."""
        if slot >= self.slot_count or self._slot(slot)[1] == 0:
            raise StorageError(f"page {self.page_id}: slot {slot} is empty")
        self._set_slot(slot, 0, 0)
        self.dirty = True

    def update(self, slot: int, record: bytes) -> bool:
        """Overwrite a record in place if it fits; returns False otherwise."""
        offset, length = self._slot(slot)
        if length == 0:
            raise StorageError(f"page {self.page_id}: slot {slot} is empty")
        if len(record) <= length:
            self.data[offset : offset + len(record)] = record
            self._set_slot(slot, offset, len(record))
            self.dirty = True
            return True
        return False

    def records(self) -> Iterator[tuple[int, bytes]]:
        """Yield (slot, record bytes) for every occupied slot, in slot order."""
        for slot in range(self.slot_count):
            offset, length = self._slot(slot)
            if length:
                yield slot, bytes(self.data[offset : offset + length])

    def occupied_slots(self) -> int:
        """Slots currently holding a record."""
        return sum(1 for __ in self.records())

    def is_empty(self) -> bool:
        """True when nothing is stored here."""
        return self.occupied_slots() == 0

    def clone(self) -> "Page":
        """An independent copy (shadow version for statement rollback)."""
        copy = Page(self.page_id, bytearray(self.data))
        copy.dirty = self.dirty
        return copy
