"""LRU buffer pool with page-fetch accounting.

Every page access in the system goes through :meth:`BufferPool.fetch`.  A
miss — the page is not currently buffered — counts as one *page fetch*, the
I/O unit of the paper's cost model.  A hit is free.  The pool holds a fixed
number of page ids and evicts the least recently used.

The paper's Table 2 formulas branch on "if this number fits in the System R
buffer"; :attr:`BufferPool.capacity` is that effective per-user buffer size,
and the optimizer reads it from here.

The accounting step (:meth:`note_fetch`) is separate from page resolution
so concurrent snapshot readers (the serving layer) can share one pool's
LRU state and counters — each session resolves page *contents* against its
own pinned version while hits and fetches accumulate in the shared trace.
A small internal lock makes the LRU update atomic; with a single caller it
is uncontended and the counter sequence is unchanged.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from .counters import CostCounters
from .pagestore import PageStore

DEFAULT_BUFFER_PAGES = 64


class BufferPool:
    """Fixed-capacity LRU cache of page ids, the unit of fetch accounting."""

    def __init__(
        self,
        store: PageStore,
        counters: CostCounters,
        capacity: int = DEFAULT_BUFFER_PAGES,
    ):
        if capacity < 1:
            raise ValueError("buffer pool needs at least one page")
        self._store = store
        self._counters = counters
        self.capacity = capacity
        #: Guards the LRU map and its counter updates; sessions sharing the
        #: pool account their fetches through the same trace.
        self._lock = threading.Lock()
        self._resident: OrderedDict[int, None] = OrderedDict()

    def note_fetch(self, page_id: int) -> None:
        """Account one page access: LRU update plus hit/fetch counting."""
        with self._lock:
            if page_id in self._resident:
                self._resident.move_to_end(page_id)
                self._counters.buffer_hits += 1
            else:
                self._counters.page_fetches += 1
                self._resident[page_id] = None
                if len(self._resident) > self.capacity:
                    self._resident.popitem(last=False)

    def fetch(self, page_id: int) -> object:
        """Return the page object, counting a page fetch on a miss."""
        self.note_fetch(page_id)
        return self._store.get(page_id)

    def invalidate(self, page_id: int) -> None:
        """Drop a page from the pool (after it is freed)."""
        with self._lock:
            self._resident.pop(page_id, None)

    def clear(self) -> None:
        """Empty the pool — a "cold cache" for reproducible measurements."""
        with self._lock:
            self._resident.clear()
