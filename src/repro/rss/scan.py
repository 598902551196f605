"""RSI scans: the tuple interface onto stored relations, in batches.

Two scan types exist, exactly as in Section 3:

- :class:`SegmentScan` examines **all** non-empty pages of a segment (tuples
  of other relations sharing the segment still cost page touches) and
  returns tuples of the requested relation that satisfy the SARGs.
- :class:`IndexScan` walks B-tree leaf pages between optional start and stop
  keys, fetching each referenced data page to return tuples in key order.

Both expose two consumption styles:

- ``__iter__`` — the classic tuple-at-a-time RSI; each yielded tuple counts
  one RSI call.
- ``batches()`` — lists of matching ``(tid, values)`` pairs with **no**
  RSI accounting; the consumer counts one call per tuple it actually
  consumes (``CostCounters.count_rsi_call``), which keeps RSICARD
  semantics identical under partial consumption (a merge join that stops
  pulling early must not be charged for tuples it never saw).

Batching never changes the cost counters.  A segment scan's batches are
page-aligned: the page is fetched once before any of its tuples surface,
exactly as in tuple-at-a-time iteration, and decoding ahead within an
already-fetched page touches no counter.  An index scan fetches data pages
strictly per matching entry in index order with the default
``batch_size=1``, so interleaved consumer fetches (nested-loop inners,
correlated subqueries) hit and evict the buffer at identical points.
Larger index batch sizes group entry fetches ahead of consumer work — a
measurement-semantics trade-off documented on :class:`IndexScan` — so the
executor keeps the default.

Tuples rejected by SARGs are filtered below the interface and are *not*
counted — this is the CPU saving that makes RSICARD (not QCARD or NCARD)
the right multiplier for the W term of the cost formulas.  SARGs evaluate
through one generated predicate per SARG shape, bound to the scan's
constants at open (see :mod:`repro.rss.sargs`), and records decode
through a per-relation :class:`~repro.rss.tuples.DecodePlan`.

Every segment scan, and the nested-loop hash probe's bucket build, turns
a page into rows through one function, :func:`page_rows`: one pass over
the page bytes that reads the slot directory at once, recognizes a
NULL-free record of the relation by one byte-prefix compare, unpacks it
straight from the page, and tests the SARGs before a TID is built.

A consumer that re-opens the *same* scan many times against unchanged
pages — the fused nested-loop driver probing its inner relation once per
outer row — may pass a ``decode_cache`` dict shared across opens.  Pages
are still fetched through the buffer pool in exactly the same sequence
(``page_fetches`` and ``buffer_hits`` stay bit-identical), but record
extraction and decoding run once per page (or once per index entry)
instead of once per probe; only the per-open SARG matcher re-evaluates.
The cache must not outlive the statement that created it: any tuple
mutation invalidates it.
"""

from __future__ import annotations

from typing import Iterator

from ..datatypes import DataType
from .btree import BTree
from .buffer import BufferPool
from .counters import CostCounters
from .page import Page, TupleId
from .sargs import Sargs, TupleMatcher, compile_matcher
from .segment import Segment
from .tuples import DecodePlan

#: Matching tuples per yielded batch for page-aligned segment scans.
DEFAULT_BATCH_SIZE = 256

Batch = list[tuple[TupleId, tuple]]

_new_tid = tuple.__new__  # builds a TupleId without its Python-level __new__


def _resolve_matcher(
    sargs: Sargs | None,
    matcher: TupleMatcher | None,
    datatypes: list[DataType],
) -> TupleMatcher | None:
    if matcher is not None:
        return matcher
    return compile_matcher(sargs, datatypes)


def page_rows(
    page_id: int,
    page: Page,
    relation_id: int,
    plan: DecodePlan,
    matcher: TupleMatcher | None = None,
) -> Batch:
    """The rows of one relation on an already-fetched page that pass
    ``matcher``, in slot order, decoded in one pass over the page bytes.

    The slot directory is read at once (:meth:`Page.directory`).  A record
    whose leading bytes equal the relation id followed by an all-zero null
    bitmap is a NULL-free record of the relation; under a fixed-width
    schema it unpacks straight from ``page.data`` with no per-record copy.
    Any other record of the relation decodes in place through ``plan``.
    The matcher runs before a ``TupleId`` is built.

    Pure over the page — no counters, no buffer — which is what lets
    the nested-loop hash probe hash a page-store snapshot and replay the
    buffer-pool fetches separately.
    """
    data = page.data
    starts = data.startswith
    prefix = plan.null_free_prefix(relation_id)
    fixed = None if plan.fixed is None else plan.fixed.unpack_from
    base = plan.base_offset
    decode = plan.decode
    high, low = divmod(relation_id, 256)
    rows: Batch = []
    append = rows.append
    for slot, (offset, length) in enumerate(page.directory()):
        if not length:
            continue
        if fixed is not None and starts(prefix, offset):
            values = fixed(data, offset + base)
        elif data[offset] == high and data[offset + 1] == low:
            values = decode(data, offset)
        else:
            continue
        if matcher is None or matcher(values):
            append((_new_tid(TupleId, (page_id, slot)), values))
    return rows


class SegmentScan:
    """Scan every page of a segment for tuples of one relation."""

    def __init__(
        self,
        segment: Segment,
        relation_id: int,
        datatypes: list[DataType],
        buffer: BufferPool,
        counters: CostCounters,
        sargs: Sargs | None = None,
        matcher: TupleMatcher | None = None,
        decode_plan: DecodePlan | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        decode_cache: dict[int, Batch] | None = None,
    ):
        self._segment = segment
        self._relation_id = relation_id
        self._buffer = buffer
        self._counters = counters
        self._matcher = _resolve_matcher(sargs, matcher, datatypes)
        self._plan = decode_plan or DecodePlan(datatypes)
        self._batch_size = batch_size
        # Owned by the driving statement.
        self._decode_cache = decode_cache
        #: The segment's page list frozen at open: the scan's view of the
        #: segment, immune to pages appended or freed while it runs, and
        #: copied once per open rather than once per ``batches()`` call.
        self._page_ids: tuple[int, ...] = tuple(segment.page_ids)

    def batches(self) -> Iterator[Batch]:
        """Page-aligned batches of matching tuples, with no RSI accounting."""
        plan = self._plan
        matcher = self._matcher
        relation_id = self._relation_id
        batch_size = self._batch_size
        fetch = self._buffer.fetch
        cache = self._decode_cache
        for page_id in self._page_ids:
            page = fetch(page_id)  # counter-faithful even on cache hits
            assert isinstance(page, Page)
            if cache is None:
                rows = page_rows(page_id, page, relation_id, plan, matcher)
            else:
                rows = cache.get(page_id)
                if rows is None:
                    rows = page_rows(page_id, page, relation_id, plan)
                    cache[page_id] = rows
                if matcher is None:
                    rows = list(rows)  # never hand out the cached list
                else:
                    rows = [item for item in rows if matcher(item[1])]
            if len(rows) <= batch_size:
                if rows:
                    yield rows
                continue
            for start in range(0, len(rows), batch_size):
                yield rows[start : start + batch_size]

    def __iter__(self) -> Iterator[tuple[TupleId, tuple]]:
        counters = self._counters
        for batch in self.batches():
            for item in batch:
                counters.rsi_calls += 1
                yield item


class IndexScan:
    """Scan a relation through a B-tree index, optionally over a key range.

    ``low``/``high`` are prefixes of the index key.  The scan touches index
    leaf pages once each; data pages are fetched per matching entry, so a
    non-clustered index may fetch the same data page repeatedly (buffer
    permitting) — the behaviour Table 2's NCARD-vs-TCARD split models.

    ``batch_size`` defaults to 1: every leaf-entry and data-page fetch then
    interleaves with consumer work exactly as tuple-at-a-time iteration
    did, so page fetches and buffer hits stay bit-identical.  Larger sizes
    prefetch entries ahead of the consumer, which can turn what would have
    been a post-eviction re-fetch into a buffer hit; only use them when the
    fidelity of the fetch trace does not matter.
    """

    def __init__(
        self,
        index: BTree,
        segment: Segment,
        relation_id: int,
        datatypes: list[DataType],
        buffer: BufferPool,
        counters: CostCounters,
        low: tuple | None = None,
        high: tuple | None = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        sargs: Sargs | None = None,
        matcher: TupleMatcher | None = None,
        decode_plan: DecodePlan | None = None,
        batch_size: int = 1,
        decode_cache: dict[TupleId, tuple] | None = None,
    ):
        self._index = index
        self._segment = segment
        self._relation_id = relation_id
        self._buffer = buffer
        self._counters = counters
        self._low = low
        self._high = high
        self._low_inclusive = low_inclusive
        self._high_inclusive = high_inclusive
        self._matcher = _resolve_matcher(sargs, matcher, datatypes)
        self._plan = decode_plan or DecodePlan(datatypes)
        self._batch_size = batch_size
        # Owned by the driving statement.
        self._decode_cache = decode_cache

    def batches(self) -> Iterator[Batch]:
        """Batches of matching tuples in key order, with no RSI accounting."""
        decode = self._plan.decode
        matcher = self._matcher
        batch_size = self._batch_size
        fetch = self._buffer.fetch
        cache = self._decode_cache
        entries = self._index.scan_range(
            self._low, self._high, self._low_inclusive, self._high_inclusive
        )
        batch: Batch = []
        for __, tid in entries:
            page = fetch(tid.page_id)  # counter-faithful even on cache hits
            assert isinstance(page, Page)
            if cache is None:
                values = decode(page.read(tid.slot))
            else:
                values = cache.get(tid)
                if values is None:
                    values = decode(page.read(tid.slot))
                    cache[tid] = values
            if matcher is not None and not matcher(values):
                continue
            batch.append((tid, values))
            if len(batch) >= batch_size:
                yield batch
                batch = []
        if batch:
            yield batch

    def __iter__(self) -> Iterator[tuple[TupleId, tuple]]:
        counters = self._counters
        for batch in self.batches():
            for item in batch:
                counters.rsi_calls += 1
                yield item
