"""Temporary lists: sorted intermediates with real page accounting.

System R sorts into a "temporary list, an internal form which is more
efficient than a relation but which can only be accessed sequentially".
Here a temp list is a private run of real pages: building it writes every
row (one RSI call per insert, page fetches through the buffer pool), and
scanning it back reads the pages sequentially (one RSI call per row), so
sort costs are measured in the same currency the cost model predicts.
"""

from __future__ import annotations

from typing import Iterator

from ..datatypes import DataType
from ..rss.page import Page
from ..rss.storage import StorageEngine
from ..rss.tuples import DecodePlan, encode_tuple
from .rows import Row

#: Relation id tag used for temp records (never a real relation id).
_TEMP_RELATION_ID = 0


class TempList:
    """A materialized, sequentially readable list of composite rows."""

    def __init__(
        self,
        storage: StorageEngine,
        schema: list[tuple[str, list[DataType]]],
    ):
        self._storage = storage
        self._schema = schema
        self._datatypes = [
            datatype for __, datatypes in schema for datatype in datatypes
        ]
        self._decode_plan = DecodePlan(self._datatypes)
        self._page_ids: list[int] = []
        self._tail_page: Page | None = None
        self.row_count = 0

    def append(self, row: Row) -> None:
        """Write one row (counted: page fetch on new page, one RSI call)."""
        flat = tuple(
            value
            for alias, datatypes in self._schema
            for value in _alias_values(row, alias, len(datatypes))
        )
        record = encode_tuple(_TEMP_RELATION_ID, flat, self._datatypes)
        page = self._tail_page
        if page is None or not page.can_fit(len(record)):
            page = self._storage.store.allocate_data_page(temp=True)
            self._page_ids.append(page.page_id)
            self._storage.buffer.fetch(page.page_id)
            self._tail_page = page
        page.insert(record)
        self._storage.counters.count_rsi_call()
        self.row_count += 1

    def build(self, rows: list[Row]) -> None:
        """Write rows into pages (counted: pages + one RSI per row)."""
        for row in rows:
            self.append(row)

    def scan(self) -> Iterator[Row]:
        """Sequential read-back (counted: pages + one RSI per row)."""
        buffer = self._storage.buffer
        counters = self._storage.counters
        decode = self._decode_plan.decode
        for page_id in self._page_ids:
            page = buffer.fetch(page_id)
            assert isinstance(page, Page)
            for __, record in page.records():
                flat = decode(record)
                counters.count_rsi_call()
                yield self._unflatten(flat)

    def page_count(self) -> int:
        """Number of pages currently allocated."""
        return len(self._page_ids)

    def drop(self) -> None:
        """Free the temp pages."""
        for page_id in self._page_ids:
            self._storage.buffer.invalidate(page_id)
            self._storage.store.free(page_id)
        self._page_ids.clear()
        self._tail_page = None

    def _unflatten(self, flat: tuple) -> Row:
        values: dict[str, tuple] = {}
        offset = 0
        for alias, datatypes in self._schema:
            width = len(datatypes)
            values[alias] = flat[offset : offset + width]
            offset += width
        return Row(values=values)


def _alias_values(row: Row, alias: str, width: int) -> tuple:
    values = row.values.get(alias)
    if values is None:
        return (None,) * width
    return values
