"""Temporary lists: sorted intermediates with real page accounting.

System R sorts into a "temporary list, an internal form which is more
efficient than a relation but which can only be accessed sequentially".
Here a temp list is a private run of real pages holding flat value tuples:
building it writes every tuple (one RSI call per tuple, page fetches
through the buffer pool), and reading it back reads the pages
sequentially (one RSI call per tuple), so sort costs are measured in the
same currency the cost model predicts.

Records use the stored-tuple format of :mod:`repro.rss.tuples`, encoded by
one codec per schema (:func:`_codec`): a single ``struct`` pack for a
NULL-free tuple of a fixed-width schema, ``encode_tuple`` otherwise.

Pages are written and read a page at a time, with the counter trace of a
record-at-a-time list:

- a record that does not fit the tail page allocates and fetches the next
  page the moment it arrives, so output pages interleave with whatever
  else the writer reads (a merge reading its runs) exactly as per-record
  inserts would; the records wait in a pending list and land on their page
  in one :meth:`~repro.rss.page.Page.fill` when the next page starts or
  the list is read;
- a page is decoded whole when it is fetched: one ``iter_unpack`` when its
  records are one contiguous run of full-width NULL-free records, the
  compiled :class:`~repro.rss.tuples.DecodePlan` over the slot directory
  otherwise.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from ..datatypes import DataType, TypeKind
from ..errors import RecordTooLargeError
from ..rss.page import HEADER_SIZE, SLOT_SIZE, USABLE_PAGE_BYTES, Page
from ..rss.storage import StorageEngine
from ..rss.tuples import DecodePlan, encode_tuple

#: Relation id tag used for temp records (never a real relation id).
_TEMP_RELATION_ID = 0


class _Codec:
    """Record encoder and page decoder of one temp-list schema."""

    __slots__ = ("encode", "plan", "uniform")

    def __init__(self, datatypes: tuple[DataType, ...]):
        reference = list(datatypes)
        plan = DecodePlan(reference)
        self.plan = plan
        #: Unpacks a whole full-width NULL-free record, relation id and
        #: bitmap skipped; ``None`` for a schema with a VARCHAR column.
        self.uniform: struct.Struct | None = None
        if any(datatype.kind is TypeKind.VARCHAR for datatype in datatypes):

            def encode(values: tuple) -> bytes:
                return encode_tuple(_TEMP_RELATION_ID, values, reference)

        else:
            assert plan.fixed is not None and _TEMP_RELATION_ID == 0
            # Relation id 0 and an all-clear bitmap are all zero bytes.
            layout = f">{plan.base_offset}x{plan.fixed.format[1:]}"
            self.uniform = struct.Struct(layout)
            pack = self.uniform.pack

            def encode(values: tuple) -> bytes:
                if None in values:
                    return encode_tuple(_TEMP_RELATION_ID, values, reference)
                return pack(*values)

        self.encode = encode

    def decode_page(self, page: Page) -> list[tuple]:
        """Every record of a page written by :meth:`TempList.extend`, in
        slot order."""
        data = page.data
        end = page.free_pointer
        uniform = self.uniform
        # Filled pages are packed, so records of total length count × full
        # width are all full width, i.e. NULL-free.
        if uniform is not None and end - HEADER_SIZE == page.slot_count * uniform.size:
            return list(uniform.iter_unpack(data[HEADER_SIZE:end]))
        decode = self.plan.decode
        return [decode(data, offset) for offset, length in page.directory() if length]


@lru_cache(maxsize=256)
def _codec(datatypes: tuple[DataType, ...]) -> _Codec:
    return _Codec(datatypes)


class TempList:
    """A materialized, sequentially readable list of flat value tuples."""

    def __init__(self, storage: StorageEngine, datatypes: Sequence[DataType]):
        self._storage = storage
        self._codec = _codec(tuple(datatypes))
        self._page_ids: list[int] = []
        self._tail: Page | None = None
        #: Records placed on the tail page but not yet written to it.
        self._pending: list[bytes] = []
        #: Record plus slot bytes still free on the tail page.
        self._room = 0

    def extend(self, rows: Iterable[tuple]) -> None:
        """Write tuples in order, pulling ``rows`` one at a time (counted:
        a page fetch per new page, one RSI call per tuple)."""
        encode = self._codec.encode
        pending = self._pending
        room = self._room
        count = 0
        for values in rows:
            record = encode(values)
            need = len(record) + SLOT_SIZE
            if need > room:
                room = self._next_page(len(record))
            pending.append(record)
            room -= need
            count += 1
        self._room = room
        self._storage.counters.count_rsi_call(count)

    def append(self, values: tuple) -> None:
        """Write one tuple (counted as :meth:`extend`)."""
        self.extend((values,))

    def scan(self) -> Iterator[tuple]:
        """Sequential read-back, one tuple at a time (counted: pages, and
        one RSI call per tuple as it surfaces, so a consumer that stops
        early is charged only what it pulled)."""
        count_rsi = self._storage.counters.count_rsi_call
        for page in self._decoded_pages():
            for values in page:
                count_rsi()
                yield values

    def pages(self) -> Iterator[list[tuple]]:
        """Sequential read-back, one decoded page at a time, for consumers
        that read to the end (counted: pages, and a page's RSI calls when
        it is fetched)."""
        count_rsi = self._storage.counters.count_rsi_call
        for page in self._decoded_pages():
            count_rsi(len(page))
            yield page

    def page_count(self) -> int:
        """Number of pages currently allocated."""
        return len(self._page_ids)

    def drop(self) -> None:
        """Free the temp pages."""
        for page_id in self._page_ids:
            self._storage.buffer.invalidate(page_id)
            self._storage.store.free(page_id)
        self._page_ids.clear()
        self._pending.clear()
        self._tail = None
        self._room = 0

    # -- internals ----------------------------------------------------------

    def _next_page(self, size: int) -> int:
        """Start the page a record of ``size`` bytes goes to; its record
        plus slot bytes."""
        self._flush()
        storage = self._storage
        page = storage.store.allocate_data_page(temp=True)
        self._page_ids.append(page.page_id)
        storage.buffer.fetch(page.page_id)
        self._tail = page
        if size > USABLE_PAGE_BYTES:
            raise RecordTooLargeError(size, USABLE_PAGE_BYTES)
        return page.free_space()

    def _flush(self) -> None:
        """Write the pending records to the tail page."""
        if self._pending:
            assert self._tail is not None
            self._tail.fill(self._pending)
            self._pending.clear()

    def _decoded_pages(self) -> Iterator[list[tuple]]:
        self._flush()
        fetch = self._storage.buffer.fetch
        decode_page = self._codec.decode_page
        for page_id in self._page_ids:
            page = fetch(page_id)
            assert isinstance(page, Page)
            yield decode_page(page)
