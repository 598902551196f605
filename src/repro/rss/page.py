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

Placement state.  Besides its bytes a page keeps three ints that make
placing a record O(1) instead of a walk over the slot directory:

- ``_first_empty``: every slot below it is occupied, so the lowest empty
  slot is found by scanning forward from it (and the scan moves it on);
  ``delete`` and an ``update`` to length 0 lower it to the freed slot;
- ``_live_count`` / ``_live_bytes``: the occupied slots and the bytes
  their records hold, so dead space and emptiness need no walk.

The state is derived from the bytes, never stored in them: a fresh page
starts from zeros, a page built from bytes (a disk read, recovery) derives
it on first use, and :meth:`Page.clone` copies it.  Placement decisions are
exactly those a full walk would make — the lowest empty slot is reused and
compaction happens when free space alone is short.

A writer that owns a page outright (a temporary list) places a whole run
of records with one :meth:`Page.fill`, which leaves the bytes and the
placement state that inserting them one at a time would.
"""

from __future__ import annotations

import struct
from itertools import accumulate
from typing import Iterator, NamedTuple, Sequence

from ..errors import PageFullError, RecordTooLargeError, StorageError

PAGE_SIZE = 4096
_HEADER = struct.Struct(">HH")
_SLOT = struct.Struct(">HH")
HEADER_SIZE = _HEADER.size
#: Directory bytes each record's slot takes.
SLOT_SIZE = _SLOT.size

#: Largest record an *empty* page can hold (header plus one slot removed).
#: Anything bigger can never be placed, no matter how many fresh pages a
#: caller retries on.
USABLE_PAGE_BYTES = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE

#: ``_live_count`` of a page whose placement state is not derived yet.
_UNKNOWN = -1


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

    __slots__ = (
        "page_id", "data", "dirty", "_first_empty", "_live_count", "_live_bytes"
    )

    def __init__(self, page_id: int, data: bytearray | None = None):
        self.page_id = page_id
        self._first_empty = 0
        self._live_bytes = 0
        if data is None:
            self.data = bytearray(PAGE_SIZE)
            self._set_header(0, HEADER_SIZE)
            self._live_count = 0
        else:
            if len(data) != PAGE_SIZE:
                raise StorageError(f"page must be {PAGE_SIZE} bytes")
            self.data = data
            self._live_count = _UNKNOWN
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

    @property
    def free_pointer(self) -> int:
        """Offset where the next record would be written."""
        return self._header()[1]

    def _slot(self, slot: int) -> tuple[int, int]:
        position = PAGE_SIZE - SLOT_SIZE * (slot + 1)
        return _SLOT.unpack_from(self.data, position)

    def _set_slot(self, slot: int, offset: int, length: int) -> None:
        position = PAGE_SIZE - SLOT_SIZE * (slot + 1)
        _SLOT.pack_into(self.data, position, offset, length)

    def _occupied(self, slot: int) -> tuple[int, int]:
        """``(offset, length)`` of an occupied slot; raises otherwise."""
        if not 0 <= slot < self.slot_count:
            raise StorageError(f"page {self.page_id}: no slot {slot}")
        offset, length = self._slot(slot)
        if length == 0:
            raise StorageError(f"page {self.page_id}: slot {slot} is empty")
        return offset, length

    # -- placement state --------------------------------------------------

    def _ensure_state(self) -> None:
        """Derive the live count and bytes of a page built from bytes."""
        if self._live_count != _UNKNOWN:
            return
        count = live = 0
        for slot in range(self.slot_count):
            length = self._slot(slot)[1]
            if length:
                count += 1
                live += length
        # The count doubles as the "derived" flag, so it is published last.
        self._live_bytes = live
        self._live_count = count

    def first_empty_slot(self) -> int | None:
        """The lowest empty slot, or None when every slot is occupied."""
        return self._empty_slot(self.slot_count)

    def _empty_slot(self, slot_count: int) -> int | None:
        """:meth:`first_empty_slot` for a caller holding the header."""
        self._ensure_state()
        slot = self._first_empty
        while slot < slot_count and self._slot(slot)[1]:
            slot += 1
        self._first_empty = slot
        return slot if slot < slot_count else None

    def _reclaimable(self, slot_count: int) -> int:
        """Free plus dead bytes (state already derived): the room a
        compaction would leave for new records."""
        return PAGE_SIZE - SLOT_SIZE * slot_count - HEADER_SIZE - self._live_bytes

    # -- space accounting -------------------------------------------------

    def free_space(self) -> int:
        """Contiguous bytes available for a new record plus its slot."""
        slot_count, free_ptr = self._header()
        directory_start = PAGE_SIZE - SLOT_SIZE * slot_count
        return max(0, directory_start - free_ptr)

    def dead_space(self) -> int:
        """Bytes occupied by deleted records, reclaimable by compaction."""
        self._ensure_state()
        return self.free_pointer - HEADER_SIZE - self._live_bytes

    def compact(self) -> None:
        """Rewrite live records contiguously, reclaiming dead space."""
        records = list(self.records())
        write_ptr = HEADER_SIZE
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
        slot_count = self.slot_count
        needed = record_size
        if self._empty_slot(slot_count) is None:
            needed += SLOT_SIZE
        return self._reclaimable(slot_count) >= needed

    # -- record operations --------------------------------------------------

    def insert(self, record: bytes) -> int:
        """Store a record, returning the slot number it was placed in.

        Raises :class:`RecordTooLargeError` when the record could not fit
        even on an empty page (so retrying on a fresh page is futile) and
        :class:`PageFullError` when only *this* page lacks the space.
        """
        size = len(record)
        if size > USABLE_PAGE_BYTES:
            raise RecordTooLargeError(size, USABLE_PAGE_BYTES)
        slot_count, free_ptr = self._header()
        slot = self._empty_slot(slot_count)
        needed = size + (0 if slot is not None else SLOT_SIZE)
        if PAGE_SIZE - SLOT_SIZE * slot_count - free_ptr < needed:  # free space
            if self._reclaimable(slot_count) < needed:
                raise PageFullError(
                    f"page {self.page_id}: need {needed} bytes, "
                    f"have {self.free_space()}"
                )
            self.compact()
            free_ptr = self.free_pointer
        if slot is None:
            slot = slot_count
            slot_count += 1
        self.data[free_ptr : free_ptr + size] = record
        self._set_slot(slot, free_ptr, size)
        self._set_header(slot_count, free_ptr + size)
        if size:
            self._first_empty = slot + 1
            self._live_count += 1
            self._live_bytes += size
        else:
            # A zero-length record leaves its slot empty.
            self._first_empty = slot
        self.dirty = True
        return slot

    def fill(self, records: Sequence[bytes]) -> None:
        """Append non-empty ``records`` in new slots after the last one,
        writing the records region, the slot directory and the header once.

        The page must hold no empty slot and no dead space (a fresh page,
        or one only ever filled): :meth:`insert` would then place each
        record in the next slot at the free pointer, and the bytes and
        placement state left here are exactly those.  Raises
        :class:`PageFullError` when the records do not all fit.
        """
        slot_count, free_ptr = self._header()
        self._ensure_state()
        if (
            self._live_count != slot_count
            or free_ptr - HEADER_SIZE != self._live_bytes
        ):
            raise StorageError(f"page {self.page_id}: fill needs a packed page")
        if not all(records):
            raise StorageError(f"page {self.page_id}: fill of an empty record")
        lengths = [len(record) for record in records]
        offsets = list(accumulate(lengths, initial=free_ptr))
        end = offsets.pop()
        count = slot_count + len(records)
        directory_start = PAGE_SIZE - SLOT_SIZE * count
        if end > directory_start:
            raise PageFullError(
                f"page {self.page_id}: need {end - free_ptr} bytes plus "
                f"{len(records)} slots, have {self.free_space()}"
            )
        # The directory grows down from the page end: last slot first.
        entries = [
            value
            for pair in zip(reversed(offsets), reversed(lengths))
            for value in pair
        ]
        data = self.data
        data[free_ptr:end] = b"".join(records)
        data[directory_start : PAGE_SIZE - SLOT_SIZE * slot_count] = struct.pack(
            f">{len(entries)}H", *entries
        )
        self._set_header(count, end)
        self._first_empty = count
        self._live_count = count
        self._live_bytes = end - HEADER_SIZE
        self.dirty = True

    def read(self, slot: int) -> bytes:
        """Return the record bytes at ``slot``; raises on empty slots."""
        offset, length = self._occupied(slot)
        return bytes(self.data[offset : offset + length])

    def delete(self, slot: int) -> None:
        """Free a slot.  Record bytes become dead space until compaction."""
        __, length = self._occupied(slot)
        self._ensure_state()
        self._set_slot(slot, 0, 0)
        self._live_count -= 1
        self._live_bytes -= length
        self._first_empty = min(self._first_empty, slot)
        self.dirty = True

    def update(self, slot: int, record: bytes) -> bool:
        """Overwrite a record in place if it fits; returns False otherwise."""
        offset, length = self._occupied(slot)
        size = len(record)
        if size > length:
            return False
        self._ensure_state()
        self.data[offset : offset + size] = record
        self._set_slot(slot, offset, size)
        self._live_bytes -= length - size
        if size == 0:
            self._live_count -= 1
            self._first_empty = min(self._first_empty, slot)
        self.dirty = True
        return True

    def directory(self) -> list[tuple[int, int]]:
        """``(offset, length)`` of every slot in slot order, read with one
        ``iter_unpack``; a length of 0 marks an empty slot."""
        start = PAGE_SIZE - SLOT_SIZE * self.slot_count
        entries = list(_SLOT.iter_unpack(self.data[start:]))
        entries.reverse()  # the directory grows down from the page end
        return entries

    def records(self) -> Iterator[tuple[int, bytes]]:
        """Yield (slot, record bytes) for every occupied slot, in slot order."""
        for slot in range(self.slot_count):
            offset, length = self._slot(slot)
            if length:
                yield slot, bytes(self.data[offset : offset + length])

    def occupied_slots(self) -> int:
        """Slots currently holding a record."""
        self._ensure_state()
        return self._live_count

    def is_empty(self) -> bool:
        """True when nothing is stored here."""
        return self.occupied_slots() == 0

    def clone(self) -> "Page":
        """An independent copy (shadow version for statement rollback)."""
        copy = Page(self.page_id, bytearray(self.data))
        copy.dirty = self.dirty
        copy._first_empty = self._first_empty
        copy._live_count = self._live_count
        copy._live_bytes = self._live_bytes
        return copy
